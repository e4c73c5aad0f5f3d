"""The direct JSON emitter against json.dumps with a two-space indent."""

from __future__ import annotations

import json
import re
import tracemalloc
from itertools import chain

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from ginlab import MonomialStaircase, PointConfig, gin_staircase, shape_report
from ginlab.exporters import (BREAK_EVEN, CHUNK, _batches, _IntRuns, _window, generator_line,
                              gin_pieces, hilbert_pieces, intercept_str, json_pieces, rational_str,
                              render_ranges, render_runs, shape_json, shape_pieces, staircase_json,
                              staircase_payload)
from ginlab.staircase import colength
from oracles import expected_generator_line, generators, heights, shgh_with_alpha, staircase_of


def joined(payload) -> str:
    """The emitter's document: its pieces, joined."""
    return "".join(json_pieces(payload))

# ints past 64 bits, and text with non-ASCII, control characters, quotes
# and backslashes
scalars = (st.none() | st.booleans() | st.integers(min_value=-2**80, max_value=2**80)
           | st.text(alphabet=st.characters() | st.sampled_from('"\\\n\t\x00\x7f'), max_size=8))


def pairs_of(leaf):
    return st.lists(st.tuples(leaf, leaf) | st.lists(leaf, min_size=2, max_size=2), max_size=6)


def named(values, width: int = 1):
    """A sequence of ints (width 1) or of int pairs (width 2) as the payload
    builders name an int array: an _IntRuns over _batches of CHUNK ints."""
    ints = iter(values) if width == 1 else chain.from_iterable(values)
    return _IntRuns(_batches(ints, CHUNK), width, "%d", render_runs)


class Door(list):
    """An int array that json.dumps reads as a list and `through_doors` hands
    the emitter as named(self, width); an empty one stays a plain list, "[]"."""

    def __init__(self, values, width: int):
        super().__init__(values)
        self.width = width


def through_doors(o):
    """o with every Door, at any depth, replaced by its named array."""
    if isinstance(o, Door):
        return named(o, o.width) if o else []
    if isinstance(o, dict):
        return {key: through_doors(value) for key, value in o.items()}
    if isinstance(o, (list, tuple)):
        return type(o)(map(through_doors, o))
    return o


doors = (st.lists(st.integers(), max_size=6).map(lambda v: Door(v, 1))
         | st.lists(st.tuples(st.integers(), st.integers()), max_size=6).map(lambda v: Door(v, 2)))

# flat int lists and lists of int or str pairs, as lists or tuples, take the
# emitter's generic path like any other list; a Door is the same array handed
# over as a named array, the path the payload builders name for large arrays
payloads = st.recursive(
    scalars | st.lists(st.integers(), max_size=6) | pairs_of(st.integers()) | pairs_of(st.text(max_size=4))
    | doors,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)),
    max_leaves=12,
)


# no shrink phase: shrinking nested payloads that all fail takes minutes,
# and the first failing example is printed all the same
@settings(max_examples=120, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(payloads)
def test_matches_json_dumps(payload):
    expected = json.dumps(payload, indent=2)
    assert joined(payload) == expected
    assert joined(through_doors(payload)) == expected


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()], [[[]]], [[1, 2], []], [(1, 2), [3, 4], (5, True)],
    [[1, 2], ["a", "b"]], [[1, "b"]], [True, 1], [None, 0], {"k": [(-1, 2**70)]},
    [1, True], [(1, True)], [1] * CHUNK + [True], [(1, 2)] * CHUNK + [(3, False)],
])
def test_edge_payloads_match_json_dumps(payload):
    assert joined(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [
    1.5, {"x": [0.0]}, [[1, 2.0]], {1: "a"}, {"a": {None: 1}}, [{2: 3}],
])
def test_floats_and_non_str_keys_are_type_errors(payload):
    with pytest.raises(TypeError):
        joined(payload)


# an int array of each length, as a list of lists and as a tuple of tuples,
# rendered item by item and as a named array
@pytest.mark.parametrize("length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("container", [list, tuple])
def test_int_arrays_across_chunk_boundaries_match_json_dumps(length, container):
    ints = container((-1) ** i * i * 10 ** (i % 25) for i in range(length))
    payload = {"ints": ints, "pairs": container(container((x, length - x)) for x in ints)}
    expected = json.dumps(payload, indent=2)
    assert joined(payload) == expected
    assert joined({"ints": named(ints), "pairs": named(payload["pairs"], 2)}) == expected


def expected_staircase_json(s: MonomialStaircase) -> str:
    return json.dumps({
        "config": str(s.config),
        "m": s.m,
        "alpha": s.alpha,
        "lambdas": list(heights(s)),
        "generators": [[x, y] for x, y in generators(s)],
        "colength": colength(s),
        "conjectural": s.config.conjectural,
    }, indent=2)


def test_large_staircase_matches_json_dumps():
    s = gin_staircase(PointConfig.shgh(16), 4000)
    # compared as line lists: pytest names the first differing line, where a
    # str comparison would diff some 10^5 lines and take minutes to fail
    assert staircase_json(s).split("\n") == expected_staircase_json(s).split("\n")


# alpha + 1 generators and alpha column heights on each side of one and two chunks
@pytest.mark.parametrize("a", [CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK])
def test_staircases_across_chunk_boundaries_match_json_dumps(a):
    s = shgh_with_alpha(a)
    assert staircase_json(s).split("\n") == expected_staircase_json(s).split("\n")


# render_ranges against render_runs over the expanded ints: ranges that cross
# from at - 1 to at, or that reach 0 when at is 0, downward and upward by
# turns, each segment after the first starting with sep.  A length gives two
# segments of it; a sequence of lengths mixes segments written from the tables
# (ranges) with shorter ones written from templates (int tuples, as
# _stretches hands them over), among them short segments whose ints pass
# CHUNK between two long ones
@pytest.mark.parametrize("item", ["%d", "[\n      %d,\n      %d\n    ]", "x^%dy^%d"])
@pytest.mark.parametrize("length", [
    1, 2, BREAK_EVEN - 1, BREAK_EVEN, BREAK_EVEN + 1, 999, 1000, 1001, 2500,
    pytest.param((2500, 1, BREAK_EVEN - 1, BREAK_EVEN), id="long-short-short-long"),
    pytest.param((BREAK_EVEN, *(BREAK_EVEN - 1,) * 120, 1001), id="long-shorts_past_CHUNK-long"),
    pytest.param((1, 1001, BREAK_EVEN, 2, BREAK_EVEN - 1), id="short-long-long-short-short"),
])
@pytest.mark.parametrize("at", [0, 1000, 10000, 100000])
def test_range_pieces_match_render_runs(at, length, item):
    width = item.count("%d")
    segments = []
    for i, n in enumerate((length, length) if isinstance(length, int) else length):
        top, bottom = max(at + n // 2, n - 1), max(at - n // 2, 0)
        down, up = range(top, top - n, -1), range(bottom, bottom + n)
        segment = ((down, up) if i % 2 == 0 else (up, down))[:width]
        segments.append(segment if n >= BREAK_EVEN else tuple(map(tuple, segment)))
    ints = [n for segment in segments for column in zip(*segment) for n in column]
    pieces = list(render_ranges(segments, item, ", ", "<"))
    assert "".join(pieces) == "".join(render_runs(_batches(iter(ints), CHUNK), item, ", ", "<"))
    assert max(len(re.findall(r"\d+", piece)) for piece in pieces) <= CHUNK


# the same budget in every streamed writer: each piece of a document, an SVG
# outline piece and a run of shape corners among them, holds at most CHUNK
# numbers, and the pieces of a long array fill it
@pytest.mark.parametrize("document", [
    lambda: gin_pieces(gin_staircase(PointConfig.shgh(9), 2800), "json"),
    lambda: gin_pieces(gin_staircase(PointConfig.shgh(9), 2800), "text"),
    lambda: gin_pieces(gin_staircase(PointConfig.parse("collinear:3"), 3000), "json"),
    lambda: shape_pieces(shape_report(PointConfig.shgh(9), [1, 2800]), "json"),
    lambda: shape_pieces(shape_report(PointConfig.shgh(9), [1, 2800]), "svg"),
    lambda: hilbert_pieces(PointConfig.general(6), 10, ((t, t * t) for t in range(3000)), "text"),
], ids=["gin-json", "gin-text", "gin-json-many-runs", "shape-json", "shape-svg", "hilbert-text"])
def test_every_streamed_piece_holds_at_most_chunk_numbers(document):
    numbers = [len(re.findall(r"\d+(?:\.\d+)?", piece)) for piece in document()]
    assert max(numbers) == CHUNK


# a window inside one segment, across two, before and after others, and empty
@pytest.mark.parametrize("start,stop,expected", [
    (4, 4, []),
    (1, 3, [(range(1, 3), range(11, 13))]),
    (3, 7, [(range(3, 5), range(13, 15)), (range(5, 7), range(15, 17))]),
    (0, 9, [(range(5), range(10, 15)), (range(5, 9), range(15, 19))]),
    (6, 8, [(range(6, 8), range(16, 18))]),
])
def test_window_cuts_columns_from_segments(start, stop, expected):
    segments = [(range(5), range(10, 15)), (range(5, 9), range(15, 19)),
                (range(9, 12), range(19, 22))]
    assert list(_window(iter(segments), start, stop)) == expected


# whole documents through the tables: heights and x-exponents that reach 999,
# 1000 and 1001 columns, and cross 10000 and 100000
@pytest.mark.parametrize("a", [999, 1000, 1001, 10000, 100001])
def test_long_run_staircases_match_json_dumps_and_the_text_line(a):
    s = shgh_with_alpha(a)
    assert len(s.runs[0]) >= BREAK_EVEN
    assert staircase_json(s).split("\n") == expected_staircase_json(s).split("\n")
    assert "generators: " + "".join(generator_line(s)) == expected_generator_line(s)


# general:7 staircases whose runs average 38.5 and 43.1 columns, each with
# runs on both sides of BREAK_EVEN: both arrays go to render_ranges, and
# _stretches chooses a run at a time, a long one as its range and the ints of
# consecutive short ones as tuples, and the bytes hold
@pytest.mark.parametrize("m", [29, 115])
def test_runs_at_the_break_even_choose_the_renderer(m):
    s = gin_staircase(PointConfig.general(7), m)
    assert min(map(len, s.runs)) < BREAK_EVEN <= max(map(len, s.runs))
    payload = staircase_payload(s)
    assert payload["lambdas"].render is payload["generators"].render is render_ranges
    lambdas = [column for column, in payload["lambdas"].runs]
    assert [run for run in lambdas if type(run) is range] == [run for run in s.runs if len(run) >= BREAK_EVEN]
    assert all(type(ints) is tuple and len(ints) <= CHUNK for ints in lambdas if type(ints) is not range)
    assert [*chain.from_iterable(lambdas)] == [*chain.from_iterable(s.runs)]
    assert staircase_json(s) == expected_staircase_json(s)
    assert "generators: " + "".join(generator_line(s)) == expected_generator_line(s)


@st.composite
def profiles(draw) -> tuple[int, ...]:
    """A strictly decreasing column profile, built from its lowest column up:
    runs falling by exactly 1, of lengths on each side of BREAK_EVEN, each at
    least 2 above the one to its right, at heights that cross 1000."""
    height, columns = draw(st.integers(1, 1100)), []
    for length in draw(st.lists(st.integers(1, 2 * BREAK_EVEN), min_size=1, max_size=30)):
        columns += range(height, height + length)
        height += length - 1 + draw(st.integers(2, 300))
    return tuple(reversed(columns))


# m = 1 and r = the colength, so that the scheme-length guard holds for any profile
@given(profiles())
@settings(max_examples=150, deadline=None)
def test_mixed_run_lengths_match_json_dumps_and_the_text_line(profile):
    assume(sum(profile) >= 9)
    s = staircase_of(profile, 1, PointConfig.shgh(sum(profile)))
    assert staircase_json(s) == expected_staircase_json(s)
    assert "generators: " + "".join(generator_line(s)) == expected_generator_line(s)


# The staircase has no member that builds the generator pairs: the writer has
# only the runs to read.  The bytes are pinned here, the peak in the next test.
def test_staircase_json_never_builds_the_generator_pairs():
    s = gin_staircase(PointConfig.shgh(10), 1295)
    assert staircase_json(s) == expected_staircase_json(s)


def test_staircase_json_peak_memory_is_about_two_documents():
    # the pieces and their join; the generator pairs or one str per number
    # would take the peak to about five documents
    s = gin_staircase(PointConfig.shgh(16), 4000)
    tracemalloc.start()
    try:
        text = staircase_json(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


def expected_shape_json(report) -> str:
    """The corners built as a list of rational str pairs, one per generator."""
    predicted = None
    if report.predicted is not None:
        predicted = [intercept_str(g) for g in report.predicted]
    return json.dumps({
        "config": str(report.config),
        "predicted_intercepts": predicted,
        "seshadri_estimate": intercept_str(report.seshadri_estimate),
        "conjectural": report.config.conjectural,
        "entries": [
            {
                "m": e.m,
                "alpha": e.alpha,
                "zeta": e.zeta,
                "colength": colength(e),
                "x_intercept": rational_str(e.alpha, e.m),
                "y_intercept": rational_str(e.zeta, e.m),
                "colength_over_m2": rational_str(colength(e), e.m * e.m),
                "corners": [[rational_str(x, e.m), rational_str(y, e.m)]
                            for x, y in reversed(generators(e))],
            }
            for e in report.entries
        ],
    }, indent=2)


# alpha + 1 corners on each side of one chunk, and just past two
@pytest.mark.parametrize("corners", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_shape_corners_across_chunk_boundaries_match_json_dumps(corners):
    s = shgh_with_alpha(corners - 1)
    report = shape_report(s.config, [1, s.m])
    assert shape_json(report).split("\n") == expected_shape_json(report).split("\n")


# m = 1, where every corner is whole, and m with few and with many divisors
@pytest.mark.parametrize("spec,m_list", [("general:6", [1, 7, 30, 60]), ("general:8", [17, 34]),
                                         ("collinear:5", [1, 7, 20, 40]), ("collinear:3", [6, 12, 18])])
def test_divisor_shape_reports_match_json_dumps(spec, m_list):
    report = shape_report(PointConfig.parse(spec), m_list)
    assert shape_json(report) == expected_shape_json(report)


# As for staircase_json: the bytes here, the peak in the next test.
def test_shape_json_never_builds_the_generator_pairs():
    report = shape_report(PointConfig.shgh(13), [100, 500])
    assert shape_json(report) == expected_shape_json(report)


def test_shape_json_peak_memory_is_about_two_documents():
    # the pieces and their join; one list and two strs per corner take the
    # peak to about five documents
    report = shape_report(PointConfig.shgh(15), [158, 313, 468, 623, 778, 933])
    tracemalloc.start()
    try:
        text = shape_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)
