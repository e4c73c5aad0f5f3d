"""Command-line interface.

Exit codes: 0 success, 1 a verification or convergence suite failed,
2 bad usage, an unsupported configuration or out of memory, 3 an internal
arithmetic guard tripped.  A reader that closes stdout early ends the output
silently, with the command's own code.  An error line that stderr cannot take
is dropped, and the code stays the one the error calls for.  Output is
deterministic byte for byte for identical invocations; files always end with
a newline.

The table ``_COMMANDS`` is the single list of subcommands and their flags,
and ``_SHARED`` the list of the flags they all take: the parser, the
``--config-file`` keys and the plain reader are all derived from the two.
The plain reader takes an argv of the form ``COMMAND [CONFIG] (--FLAG
VALUE)...``, each flag spelled in full and given at most once, each value
non-empty, not starting with ``-`` and valid for its flag (an int for an int
flag, one of the command's formats for ``--format``), and builds the
namespace argparse would build for it: the command's name and its settings.
Every other argv, ``--help`` and every usage error go to argparse, the one
owner of help and error text, which is imported only then.  So a plain
command loads neither argparse nor, unless it writes JSON or reads a config
file, json.

``run`` is the program, the one exit path of ``python -m ginlab`` and of the
``ginlab`` script: it calls ``main`` on ``sys.argv``, flushes stdout and
stderr, and ends the process with ``os._exit``, skipping interpreter
teardown.  ``main`` registers no ``atexit`` handler, starts no thread and
closes every file it opens, so the skipped teardown has nothing left to
write.  A library caller calls ``main``, which returns the exit code.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from types import SimpleNamespace

from . import exporters, shape, staircase, verify
from .errors import ComputationGuardError
from .hilbert import hilbert_fn
from .lattice import PointConfig, canonical_class, exceptional_classes, intersect

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _write(pieces: Iterable[str], out: str | None) -> None:
    if out is None:
        if sys.stdout is None:  # descriptor 1 was closed when the process started
            raise OSError("stdout is closed")
        sys.stdout.writelines(_ended(pieces))
        sys.stdout.flush()  # a closed pipe shows here, inside main's error handling
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(_ended(pieces))


def _ended(pieces: Iterable[str]) -> Iterator[str]:
    # the pieces as the command renders them, each at most one CHUNK run of an
    # array, one piece of an SVG outline or the structure between two of them,
    # so no whole document is ever held; then the newline, if the last
    # non-empty piece lacks it
    end = ""
    for piece in pieces:
        yield piece
        end = piece[-1:] or end
        del piece  # not held while the next piece is rendered
    if end != "\n":
        yield "\n"


def _parse_m_list(args) -> list[int]:
    if args.m_list is not None and args.m is not None:
        raise ValueError("give --m or --m-list, not both")
    if args.m_list:
        try:
            return [int(chunk) for chunk in args.m_list.split(",") if chunk.strip()]
        except ValueError:
            raise ValueError(f"bad multiplicity list {args.m_list!r}")
    if args.m is not None:
        return [args.m]
    raise ValueError("need --m or --m-list")


def _parse_t_range(args) -> list[int]:
    if args.t_range is not None and args.t is not None:
        raise ValueError("give --t or --t-range, not both")
    if args.t_range:
        lo, sep, hi = args.t_range.partition("..")
        if not sep or not all(end.strip().removeprefix("-").isdecimal() for end in (lo, hi)):
            raise ValueError(f"bad degree range {args.t_range!r}; expected A..B")
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError("degree range must be increasing")
        return list(range(start, stop + 1))
    if args.t is not None:
        return [args.t]
    raise ValueError("need --t or --t-range")


# Each command computes its result, running every guard, and returns its
# document as (pieces, exit code): the pieces are strs, and an int array in
# them is rendered only as it is written.  main does the reading, the writing
# and the error handling.

def cmd_classes(config: PointConfig, args) -> tuple[Iterable[str], int]:
    classes = exceptional_classes(config)
    k = canonical_class(config.r)
    if args.format == "json":
        return exporters.json_pieces({
            "config": str(config),
            "provenance": config.provenance,
            "count": len(classes),
            "classes": [
                {
                    "d": c.d,
                    "mults": c.mults,
                    "self_intersection": intersect(c, c),
                    "canonical_pairing": intersect(c, k),
                }
                for c in classes
            ],
        }), EXIT_OK
    lines = [f"# {config} ({config.provenance}): {len(classes)} negative curve classes"]
    for c in classes:
        lines.append(f"{c}  C.C={intersect(c, c)}  C.K={intersect(c, k)}")
    return ("\n".join(lines),), EXIT_OK


def cmd_hilbert(config: PointConfig, args) -> tuple[Iterable[str], int]:
    if args.m is None:
        raise ValueError("need --m")
    ts = _parse_t_range(args)
    rows = [(t, hilbert_fn(config, args.m, t)) for t in ts]
    if args.format == "json":
        return exporters.json_pieces({
            "config": str(config),
            "m": args.m,
            "conjectural": config.conjectural,
            "values": exporters.int_runs(rows, 2),
        }), EXIT_OK
    if args.format == "csv":
        return (exporters.hilbert_csv(rows),), EXIT_OK
    lines = [f"# {config}, m={args.m}" + (" (conjectural)" if config.conjectural else "")]
    lines += [f"t={t}  H={v}" for t, v in rows]
    return ("\n".join(lines),), EXIT_OK


def cmd_gin(config: PointConfig, args) -> tuple[Iterable[str], int]:
    if args.m is None:
        raise ValueError("need --m")
    s = staircase.gin_staircase(config, args.m)
    if args.format == "json":
        return exporters.json_pieces(exporters.staircase_payload(s)), EXIT_OK
    head = "\n".join([
        f"# {config}, m={s.m}" + (" (conjectural)" if config.conjectural else ""),
        f"alpha={s.alpha} zeta={s.zeta} colength={staircase.colength(s)}",
        "generators: ",
    ])
    return chain([head], exporters.generator_line(s)), EXIT_OK


def cmd_shape(config: PointConfig, args) -> tuple[Iterable[str], int]:
    report = shape.shape_report(config, _parse_m_list(args))
    if args.format == "csv":
        return (exporters.shape_csv(report),), EXIT_OK
    if args.format == "svg":
        return exporters.svg_pieces(report), EXIT_OK
    if args.format == "json":
        return exporters.json_pieces(exporters.shape_payload(report)), EXIT_OK
    lines = [f"# {config} ({config.provenance})"]
    if report.predicted is not None:
        g1, g2 = report.predicted
        lines.append(f"predicted intercepts: {exporters.intercept_str(g1)}, "
                     f"{exporters.intercept_str(g2)}")
    else:
        lines.append("predicted intercepts: none (non-linear limit)")
    for e in report.entries:
        lines.append(f"m={e.m}  alpha={e.alpha}  zeta={e.zeta}  "
                     f"x={exporters.rational_str(e.alpha, e.m)}  "
                     f"y={exporters.rational_str(e.zeta, e.m)}  "
                     f"colength={staircase.colength(e)}")
    lines.append(f"seshadri estimate: {exporters.intercept_str(report.seshadri_estimate)}")
    return ("\n".join(lines),), EXIT_OK


def cmd_verify(config: PointConfig, args) -> tuple[Iterable[str], int]:
    report = verify.run_verification(config, args.max_m)
    code = EXIT_OK if report.passed else EXIT_VERIFY
    if args.format == "json":
        return exporters.json_pieces({
            "config": str(config),
            "max_m": report.max_m,
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }), code
    lines = [f"# verify {config} --max-m {report.max_m}"]
    for c in report.checks:
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    lines.append("all checks passed" if report.passed
                 else f"{len(report.failures)} check(s) failed")
    return ("\n".join(lines),), code


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# (name, command, help, formats with the default first, flags); a flag is (flag, type, help)
_COMMANDS = (
    ("classes", cmd_classes, "list the negative curve classes", ("text", "json"), ()),
    ("hilbert", cmd_hilbert, "Hilbert function values", ("text", "csv", "json"),
     (("--m", int, "multiplicity"), ("--t", int, "single degree"),
      ("--t-range", str, "degree range A..B"))),
    ("gin", cmd_gin, "initial-ideal staircase", ("json", "text"), (("--m", int, "multiplicity"),)),
    ("shape", cmd_shape, "scaled staircase report", ("text", "csv", "json", "svg"),
     (("--m", int, "single multiplicity"), ("--m-list", str, "comma-separated multiplicities"))),
    ("verify", cmd_verify, "run the cross-validation suite", ("text", "json"),
     (("--max-m", int, "largest multiplicity the suite touches"),)),
)
# the flags every subcommand takes ahead of its own; a config file supplies the
# config and every flag after --config-file
_SHARED = (("--config-file", str, "JSON file supplying any of the flags below"),
           ("--format", str, None), ("--out", str, "write output to this file"))
_BY_NAME = {row[0]: row for row in _COMMANDS}
_FILE_KEYS = {"config": str, **{_dest(flag): kind for row in _COMMANDS
                                for flag, kind, _ in (*_SHARED, *row[4])[1:]}}
# a flag and its list form are one setting: either on the command line hides both in the file
_SETTING = {"m_list": "m", "t_range": "t"}


def _apply_config_file(args) -> None:
    """Fill flags left off the command line from a JSON file, then default the rest.

    Flags that have a default are parsed as None, so an explicit flag that
    happens to equal its default still wins over the file.  ``--m`` and
    ``--m-list`` count as one setting, and so do ``--t`` and ``--t-range``.
    A key the subcommand does not take is refused.
    """
    _, _, _, formats, flags = _BY_NAME[args.command]
    if args.config_file:
        import json

        with open(args.config_file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        keys = ["config", *(_dest(flag) for flag, _, _ in (*_SHARED, *flags)[1:])]
        refused = ", ".join(repr(key) for key in data if key not in keys)
        if refused:
            raise ValueError(f"config file keys not taken by {args.command}: {refused}")
        given = {_SETTING.get(key, key) for key in keys if getattr(args, key) is not None}
        for key in keys:
            if key in data and _SETTING.get(key, key) not in given:
                value, kind = data[key], _FILE_KEYS[key]
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise ValueError(f"config file entry {key!r} must be of type {kind.__name__}")
                setattr(args, key, value)
    if args.format is None:
        args.format = formats[0]
    elif args.format not in formats:
        raise ValueError(f"format {args.format!r} is not one of {', '.join(formats)}")
    if args.command == "verify" and args.max_m is None:
        args.max_m = verify.DEFAULT_MAX_M


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of ``build_parser().parse_args(argv)`` for a plain argv,
    ``COMMAND [CONFIG] (--FLAG VALUE)...``; None for any other argv."""
    row = _BY_NAME.get(argv[0]) if argv else None
    if row is None:
        return None
    name, _, _, formats, flags = row
    kinds = {flag: kind for flag, kind, _ in (*_SHARED, *flags)}
    args = {"command": name, "config": None, **dict.fromkeys(map(_dest, kinds))}
    words = argv[1:]
    if words and _plain(words[0]):
        args["config"], words = words[0], words[1:]
    if len(words) % 2:
        return None
    for flag, value in zip(words[::2], words[1::2]):
        kind = kinds.pop(flag, None)  # popped, so a repeated flag is not plain
        if kind is None or not _plain(value):
            return None
        try:
            args[_dest(flag)] = kind(value)
        except ValueError:
            return None
    if args["format"] not in (None, *formats):
        return None
    return SimpleNamespace(**args)


def _plain(word: str) -> bool:
    # argparse reads a word without a leading "-" as a value, never as a flag
    return word != "" and word[0] != "-"


def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # argparse drops a failed write, which unbuffered stdout meets at
            # once; written as a command's output is, it reaches main's handling
            if file is None and sys.stdout is not None:
                _write([self.format_help()], None)
            else:  # with descriptor 1 closed at start, argparse writes to stderr
                super().print_help(file)

    parser = Parser(
        prog="ginlab",
        description="Exact staircase computations for uniform fat-point ideals in the plane.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _, help_text, formats, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", nargs="?",
                       help="point configuration: general:R, shgh:R or collinear:L")
        for flag, kind, flag_help in (*_SHARED, *flags):
            p.add_argument(flag, type=kind, help=flag_help,
                           choices=formats if flag == "--format" else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args, code = _read_plain(argv), EXIT_OK
    try:
        if args is None:
            args = build_parser().parse_args(argv)
        _apply_config_file(args)
        if args.config is None:
            raise ValueError("missing point configuration (positional argument or config file)")
        pieces, code = _BY_NAME[args.command][1](PointConfig.parse(args.config), args)
        _write(pieces, args.out)
        return code
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 after --help
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader closed stdout: stop quietly with the command's code, and point
        # the descriptor at devnull so run's final flush does not fail again
        with open(os.devnull, "w") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        return code
    except ComputationGuardError as exc:
        _say(f"arithmetic guard: {exc}")
        return EXIT_GUARD
    except MemoryError:
        # args is None when argparse itself ran out, before any command was read
        running = "" if args is None else f" running {args.command}"
        _say(f"error: out of memory{running}; try a smaller input")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE


def _say(line: str) -> None:
    """Write one line to stderr if it takes it; a line it cannot take is
    dropped, so that it never changes the exit code it explains."""
    if sys.stderr is not None:  # None when descriptor 2 was closed at start
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            pass


def run():
    """Run main on sys.argv, flush stdout and stderr, and end the process
    with the exit code, skipping interpreter teardown; never returns.

    A reader that closed the pipe ends the output silently with the
    command's own code.  Any other failed flush turns a success into one
    error line and exit 2; a command that failed has said why already and
    keeps its code."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when its descriptor was closed at start
                stream.flush()
        except BrokenPipeError:
            pass
        except OSError as exc:
            if code == EXIT_OK:
                _say(f"error: {exc}")
                code = EXIT_USAGE
    os._exit(code)


if __name__ == "__main__":
    run()
