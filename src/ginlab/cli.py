"""Command-line interface.

Exit codes: 0 success, 1 a verification or convergence suite failed,
2 bad usage or an unsupported configuration, 3 an internal arithmetic guard
tripped.  Output is deterministic byte for byte for identical invocations;
files always end with a newline.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exporters, shape, staircase, verify
from .errors import ComputationGuardError
from .hilbert import hilbert_fn
from .lattice import PointConfig, canonical_class, exceptional_classes, intersect

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _write(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_m_list(args) -> list[int]:
    if args.m_list:
        try:
            return [int(chunk) for chunk in args.m_list.split(",") if chunk.strip()]
        except ValueError:
            raise ValueError(f"bad multiplicity list {args.m_list!r}")
    if args.m is not None:
        return [args.m]
    raise ValueError("need --m or --m-list")


def _parse_t_range(args) -> list[int]:
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


# Each command computes its result and renders it as (text, exit code);
# main does the reading, the writing and the error handling.

def cmd_classes(config: PointConfig, args) -> tuple[str, int]:
    classes = exceptional_classes(config)
    k = canonical_class(config.r)
    if args.format == "json":
        return exporters.json_text({
            "config": str(config),
            "provenance": config.provenance,
            "count": len(classes),
            "classes": [
                {
                    "d": c.d,
                    "mults": list(c.mults),
                    "self_intersection": intersect(c, c),
                    "canonical_pairing": intersect(c, k),
                }
                for c in classes
            ],
        }), EXIT_OK
    lines = [f"# {config} ({config.provenance}): {len(classes)} negative curve classes"]
    for c in classes:
        lines.append(f"{c}  C.C={intersect(c, c)}  C.K={intersect(c, k)}")
    return "\n".join(lines), EXIT_OK


def cmd_hilbert(config: PointConfig, args) -> tuple[str, int]:
    if args.m is None:
        raise ValueError("need --m")
    ts = _parse_t_range(args)
    rows = [(t, hilbert_fn(config, args.m, t)) for t in ts]
    if args.format == "json":
        return exporters.json_text({
            "config": str(config),
            "m": args.m,
            "conjectural": config.conjectural,
            "values": [[t, v] for t, v in rows],
        }), EXIT_OK
    if args.format == "csv":
        return exporters.hilbert_csv(rows), EXIT_OK
    lines = [f"# {config}, m={args.m}" + (" (conjectural)" if config.conjectural else "")]
    lines += [f"t={t}  H={v}" for t, v in rows]
    return "\n".join(lines), EXIT_OK


def cmd_gin(config: PointConfig, args) -> tuple[str, int]:
    if args.m is None:
        raise ValueError("need --m")
    s = staircase.gin_staircase(config, args.m)
    if args.format == "json":
        return exporters.staircase_json(s), EXIT_OK
    gens = " ".join(_monomial(x, y) for x, y in s.generators)
    lines = [
        f"# {config}, m={s.m}" + (" (conjectural)" if s.conjectural else ""),
        f"alpha={s.alpha} zeta={s.zeta} colength={staircase.colength(s)}",
        f"generators: {gens}",
    ]
    return "\n".join(lines), EXIT_OK


def _monomial(x: int, y: int) -> str:
    if x == 0 and y == 0:
        return "1"
    parts = []
    if x:
        parts.append(f"x^{x}" if x > 1 else "x")
    if y:
        parts.append(f"y^{y}" if y > 1 else "y")
    return "".join(parts)


def cmd_shape(config: PointConfig, args) -> tuple[str, int]:
    report = shape.shape_report(config, _parse_m_list(args))
    if args.format == "csv":
        return exporters.shape_csv(report), EXIT_OK
    if args.format == "svg":
        return exporters.shape_svg(report), EXIT_OK
    if args.format == "json":
        return exporters.shape_json(report), EXIT_OK
    lines = [f"# {config} ({config.provenance})"]
    if report.predicted is not None:
        g1, g2 = report.predicted
        lines.append(f"predicted intercepts: {exporters.intercept_str(g1)}, "
                     f"{exporters.intercept_str(g2)}")
    else:
        lines.append("predicted intercepts: none (non-linear limit)")
    for e in report.entries:
        lines.append(f"m={e.m}  alpha={e.alpha}  zeta={e.zeta}  "
                     f"x={exporters.rational_str(e.x_intercept)}  "
                     f"y={exporters.rational_str(e.y_intercept)}  "
                     f"colength={e.colength}")
    lines.append(f"seshadri estimate: {exporters.rational_str(report.seshadri_estimate)}")
    return "\n".join(lines), EXIT_OK


def cmd_verify(config: PointConfig, args) -> tuple[str, int]:
    report = verify.run_verification(config, args.max_m)
    code = EXIT_OK if report.passed else EXIT_VERIFY
    if args.format == "json":
        return exporters.json_text({
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
    return "\n".join(lines), code


_FILE_KEYS = {"config": str, "m": int, "m_list": str, "t": int, "t_range": str,
              "format": str, "out": str, "max_m": int}


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill flags left off the command line from a JSON file, then default the rest.

    Flags that have a default are parsed as None, so an explicit flag that
    happens to equal its default still wins over the file.
    """
    if args.config_file:
        with open(args.config_file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, kind in _FILE_KEYS.items():
            if key in data and getattr(args, key, None) is None:
                value = data[key]
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise ValueError(f"config file entry {key!r} must be of type {kind.__name__}")
                setattr(args, key, value)
    if args.format is None:
        args.format = args.formats[0]
    elif args.format not in args.formats:
        raise ValueError(f"format {args.format!r} is not one of {', '.join(args.formats)}")
    if args.command == "verify" and args.max_m is None:
        args.max_m = verify.DEFAULT_MAX_M


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginlab",
        description="Exact staircase computations for uniform fat-point ideals in the plane.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("config", nargs="?", default=None,
                       help="point configuration: general:R, shgh:R or collinear:L")
        p.add_argument("--config-file", default=None,
                       help="JSON file supplying any of the flags below")
        p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--out", default=None, help="write output to this file")
        p.set_defaults(formats=formats)

    p_classes = sub.add_parser("classes", help="list the negative curve classes")
    common(p_classes, ("text", "json"))
    p_classes.set_defaults(func=cmd_classes)

    p_hilbert = sub.add_parser("hilbert", help="Hilbert function values")
    common(p_hilbert, ("text", "csv", "json"))
    p_hilbert.add_argument("--m", type=int, default=None, help="multiplicity")
    p_hilbert.add_argument("--t", type=int, default=None, help="single degree")
    p_hilbert.add_argument("--t-range", default=None, help="degree range A..B")
    p_hilbert.set_defaults(func=cmd_hilbert)

    p_gin = sub.add_parser("gin", help="initial-ideal staircase")
    common(p_gin, ("json", "text"))
    p_gin.add_argument("--m", type=int, default=None, help="multiplicity")
    p_gin.set_defaults(func=cmd_gin)

    p_shape = sub.add_parser("shape", help="scaled staircase report")
    common(p_shape, ("text", "csv", "json", "svg"))
    p_shape.add_argument("--m", type=int, default=None, help="single multiplicity")
    p_shape.add_argument("--m-list", default=None, help="comma-separated multiplicities")
    p_shape.set_defaults(func=cmd_shape)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    common(p_verify, ("text", "json"))
    p_verify.add_argument("--max-m", type=int, default=None, dest="max_m",
                          help="largest multiplicity the suite touches")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _apply_config_file(args)
        if args.config is None:
            raise ValueError("missing point configuration (positional argument or config file)")
        text, code = args.func(PointConfig.parse(args.config), args)
        _write(text, args.out)
        return code
    except ComputationGuardError as exc:
        print(f"arithmetic guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
