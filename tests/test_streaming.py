"""The command line streams its documents: the same bytes as the str
exporters, to stdout and to --out, with a peak that does not grow with the
document, and nothing written when a guard trips."""

from __future__ import annotations

import io
import json
import os
import sys
import tracemalloc

import pytest

from ginlab import PointConfig, cli, gin_staircase, shape_report
from ginlab.exporters import (CHUNK, hilbert_csv, shape_csv, shape_json, shape_svg,
                              staircase_json)
from ginlab.hilbert import hilbert_fn
from ginlab.lattice import canonical_class, exceptional_classes, intersect, uniform_h0
from ginlab.verify import run_verification
from oracles import expected_generator_line


def gin_text(spec: str, m: int) -> str:
    """The gin text document built pair by pair, as one str."""
    s = gin_staircase(PointConfig.parse(spec), m)
    return "\n".join([
        f"# {s.config}, m={m}" + (" (conjectural)" if s.config.conjectural else ""),
        f"alpha={s.alpha} zeta={s.zeta} colength={sum(s.lambdas)}",
        expected_generator_line(s),
    ])


def hilbert_json(spec: str, m: int, ts: range) -> str:
    config = PointConfig.parse(spec)
    return json.dumps({"config": spec, "m": m, "conjectural": config.conjectural,
                       "values": [(t, hilbert_fn(config, m, t)) for t in ts]}, indent=2)


def classes_json(spec: str) -> str:
    config = PointConfig.parse(spec)
    classes, k = exceptional_classes(config), canonical_class(config.r)
    return json.dumps({
        "config": spec, "provenance": config.provenance, "count": len(classes),
        "classes": [{"d": c.d, "mults": c.mults, "self_intersection": intersect(c, c),
                     "canonical_pairing": intersect(c, k)} for c in classes],
    }, indent=2)


def verify_json(spec: str, max_m: int) -> str:
    report = run_verification(PointConfig.parse(spec), max_m)
    return json.dumps({
        "config": spec, "max_m": report.max_m, "passed": report.passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }, indent=2)


def shape_of(spec: str, ms: list[int]):
    return shape_report(PointConfig.parse(spec), ms)


# every command and format; the document as one str where a str exporter makes it
# (None: a one-piece document, checked against --out only).  shgh:16 at m = 3000
# has alpha = 12001, so its lambdas and generators span three CHUNK runs each;
# 9001 Hilbert values and the 8401 corners at m = 2800 span three as well
CASES = [
    ("gin general:2 --m 1", lambda: staircase_json(gin_staircase(PointConfig.general(2), 1))),
    ("gin general:2 --m 1 --format text", lambda: gin_text("general:2", 1)),
    ("gin shgh:16 --m 3000", lambda: staircase_json(gin_staircase(PointConfig.shgh(16), 3000))),
    ("gin shgh:16 --m 3000 --format text", lambda: gin_text("shgh:16", 3000)),
    ("gin collinear:4 --m 12",
     lambda: staircase_json(gin_staircase(PointConfig.parse("collinear:4"), 12))),
    ("gin general:8 --m 60 --format text", lambda: gin_text("general:8", 60)),
    ("hilbert general:8 --m 30 --t-range 0..9000 --format json",
     lambda: hilbert_json("general:8", 30, range(9001))),
    ("hilbert general:6 --m 10 --t-range 20..30 --format csv",
     lambda: hilbert_csv([(t, hilbert_fn(PointConfig.general(6), 10, t)) for t in range(20, 31)])),
    ("hilbert collinear:3 --m 6 --t 9", None),
    ("shape shgh:9 --m-list 1400,2800 --format json",
     lambda: shape_json(shape_of("shgh:9", [1400, 2800]))),
    ("shape general:6 --m-list 1,10,20 --format json",
     lambda: shape_json(shape_of("general:6", [1, 10, 20]))),
    ("shape general:6 --m-list 10,20,30 --format csv",
     lambda: shape_csv(shape_of("general:6", [10, 20, 30]))),
    ("shape collinear:3 --m-list 6,12 --format svg",
     lambda: shape_svg(shape_of("collinear:3", [6, 12]))),
    ("shape general:7 --m-list 24,48", None),
    ("verify general:5 --max-m 6 --format json", lambda: verify_json("general:5", 6)),
    ("verify collinear:3 --max-m 6", None),
    ("classes general:6 --format json", lambda: classes_json("general:6")),
    ("classes collinear:4", None),
]


def stdout_of(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command,expected", CASES, ids=[c for c, _ in CASES])
def test_streamed_bytes_match_the_str_exporters(tmp_path, capsys, command, expected):
    out = stdout_of(capsys, command.split())
    if expected is not None:
        text = expected()
        assert out == (text if text.endswith("\n") else text + "\n")
    path = tmp_path / "doc"
    assert stdout_of(capsys, [*command.split(), "--out", str(path)]) == ""
    assert path.read_bytes() == out.encode()


def test_the_large_cases_span_several_chunks():
    assert gin_staircase(PointConfig.shgh(16), 3000).alpha > 2 * CHUNK
    assert gin_staircase(PointConfig.shgh(9), 2800).alpha + 1 > 2 * CHUNK


def streamed(monkeypatch, argv: list[str]) -> tuple[int, int]:
    """(tracemalloc peak, length) of the document that `argv` writes to a text
    stream on devnull; a first run gives the length and warms every cache."""
    buffer = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buffer)
    assert cli.main(argv) == 0
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    monkeypatch.undo()
    return peak, len(buffer.getvalue())


# the staircases are cached first, so each peak is the rendering and writing
# alone: about one CHUNK run, where the joined document took two documents.
# collinear:3 has about alpha / 2 runs (16,667 at m = 20000): its peak grew
# 3x with them while each CHUNK of columns was sliced out of the runs afresh
@pytest.mark.parametrize("argv", [["gin", "shgh:16", "--format", "json", "--m"],
                                  ["gin", "shgh:16", "--format", "text", "--m"],
                                  ["shape", "shgh:16", "--format", "json", "--m-list"],
                                  ["gin", "collinear:3", "--format", "json", "--m"]],
                         ids=["gin-json", "gin-text", "shape-json", "gin-json-many-runs"])
def test_streamed_peak_does_not_grow_with_the_document(monkeypatch, argv):
    small, small_size = streamed(monkeypatch, [*argv, "4000"])
    large, large_size = streamed(monkeypatch, [*argv, "20000"])
    assert large_size > 4 * small_size
    assert large <= 0.35 * large_size
    assert large <= 1.5 * small


# the same for the text line of many runs, a 0.48 MB document, about twice
# one CHUNK run's peak, so only the growth is bounded: 335 -> 1,021 KB when
# the runs were sliced afresh per CHUNK of columns
def test_a_many_run_text_line_peaks_alike_at_any_size(monkeypatch):
    argv = ["gin", "collinear:3", "--format", "text", "--m"]
    small, small_size = streamed(monkeypatch, [*argv, "4000"])
    large, large_size = streamed(monkeypatch, [*argv, "20000"])
    assert large_size > 4 * small_size
    assert large <= 1.5 * small


# the SVG's polylines come CHUNK // 4 columns to a piece and the corners
# CHUNK // 4 to a run, so a 2.45 MB SVG and a 5.4 MB JSON report each peak
# at a few hundred KB: about 15 MB and 0.9 MB when the SVG was one str and a
# corner run held 4 * CHUNK ints
@pytest.mark.parametrize("fmt", ["svg", "json"])
def test_a_large_shape_document_peaks_under_half_a_megabyte(monkeypatch, fmt):
    peak, size = streamed(monkeypatch, ["shape", "shgh:16", "--m-list", "20000", "--format", fmt])
    assert size > 2_000_000
    assert peak < 500_000


def clear_ginlab_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("ginlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_the_walk_leaves_no_hilbert_values_behind(monkeypatch):
    # the walk reads each H(t) once from the divisor engine, so the command
    # keeps only its staircase: 2,765 cached Hilbert values took about 0.5 MB
    argv = ["gin", "collinear:8", "--m", "451", "--format", "text"]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert cli.main(argv) == 0  # warms whatever is not a cache
        clear_ginlab_caches()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert hilbert_fn.cache_info().currsize == 0
    assert retained < 100_000


def test_a_tripped_guard_writes_nothing(tmp_path, capsys, monkeypatch):
    # general:6 at m = 10 has H(23), H(24) = 0, 1; H(23) = 7 makes the first
    # difference at degree 24 negative.  The cached wrapper is bypassed so the
    # walk really runs.
    monkeypatch.setattr("ginlab.staircase.gin_staircase", gin_staircase.__wrapped__)
    monkeypatch.setattr("ginlab.staircase.uniform_h0",
                        lambda config, m, t: uniform_h0(config, m, t) + 7 * (t == 23))
    path = tmp_path / "doc.json"
    for out in ([], ["--out", str(path)]):
        code = cli.main(["gin", "general:6", "--m", "10", "--format", "json", *out])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("arithmetic guard: segment at degree 24 starts at column 31")
        assert captured.err.endswith(" for general:6, m=10; Hilbert engine bug\n")
        assert not path.exists()
