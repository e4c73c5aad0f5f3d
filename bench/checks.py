"""Output checks that share no code with ginlab.

Each check reads one command's argv, exit code and stdout and returns the
problems it finds; an empty list means the output is correct.  The facts
used are restated here from the mathematics, never imported:

- a staircase of the multiplicity-m ideal of r points has column heights
  lambda_0 > lambda_1 > ... > lambda_{alpha-1} >= 1 summing to the scheme
  length r*m*(m+1)/2, and its generators are x^alpha and x^i y^lambda_i;
- for r >= 9 points (shgh) the staircase is the closed form below, with
  alpha = (isqrt(4rm(m+1)+1)-1)//2;
- for l collinear points plus one with l(l-1) | m, alpha = 2m - m/l and the
  top generator degree is l*m;
- in degrees t at or above the nef threshold the Hilbert value is the
  Riemann-Roch count C(t+2,2) - r*C(m+1,2), and it never drops below that
  count, exceeds C(t+2,2), or grows by more than t+1 per degree;
- `verify` exits 0 and reports every check passed.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import ceil, comb, isqrt

# Largest (sum of multiplicities)/degree over the negative curves of r
# general points: the lines through 2 points, conics through 5, cubics
# (2,1^6), quartics (2^3,1^5), quintics (2^6,1^2), sextics (3,2^7).
_GENERAL_NEF_RATIO = {2: Fraction(2), 3: Fraction(2), 4: Fraction(2), 5: Fraction(5, 2),
                      6: Fraction(5, 2), 7: Fraction(8, 3), 8: Fraction(17, 6)}
# Intercepts of the limiting segment for r <= 8 general points.
GENERAL_INTERCEPTS = {6: (Fraction(12, 5), Fraction(5, 2)), 7: (Fraction(21, 8), Fraction(8, 3)),
                       8: (Fraction(48, 17), Fraction(17, 6))}
_MONOMIAL = re.compile(r"(?:x(?:\^(\d+))?)?(?:y(?:\^(\d+))?)?")
_PROVENANCE = {"general": "proven", "shgh": "conjectural", "collinear": "empirical"}


class Config:
    """A point configuration spec such as general:6 or collinear:5."""

    def __init__(self, spec: str):
        kind, _, n = spec.partition(":")
        self.spec, self.kind, self.n = spec, kind, int(n)
        self.r = self.n + 1 if kind == "collinear" else self.n

    def length(self, m: int) -> int:
        return self.r * m * (m + 1) // 2

    def divisible(self, m: int) -> bool:
        """Collinear multiplicity with exact closed-form degrees."""
        return self.kind == "collinear" and m % (self.n * (self.n - 1)) == 0

    def nef_threshold(self, m: int) -> int | None:
        if self.kind == "general":
            return ceil(_GENERAL_NEF_RATIO[self.r] * m)
        if self.kind == "collinear":
            return self.n * m  # the line through the l collinear points
        return None

    def predicted(self) -> tuple[str, str] | None:
        if self.kind == "collinear":
            return None
        if self.kind == "shgh":
            return f"sqrt({self.r})", f"sqrt({self.r})"
        r = self.r
        pair = GENERAL_INTERCEPTS.get(r) or (
            (Fraction(2), Fraction(r, 2)) if r >= 4 else (Fraction(r, 2), Fraction(2)))
        return rational(pair[0]), rational(pair[1])


def rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def shgh_alpha(r: int, m: int) -> int:
    return (isqrt(4 * r * m * (m + 1) + 1) - 1) // 2


def shgh_lambdas(r: int, m: int) -> list[int]:
    """Closed-form column heights for r >= 9 general points.

    With a = alpha and eta = C(a+2,2) - r*C(m+1,2) the Hilbert value there,
    the ideal has generators x^i y^(a-i) for a-eta < i <= a in degree a and
    x^i y^(a+1-i) for i <= a-eta in degree a+1.
    """
    a = shgh_alpha(r, m)
    eta = comb(a + 2, 2) - r * comb(m + 1, 2)
    return [a + 1 - i if i <= a - eta else a - i for i in range(a)]


def check_staircase(config: Config, m: int, alpha: int, lambdas: list[int],
                    colength: int | None = None) -> list[str]:
    problems = []
    if alpha < 1 or len(lambdas) != alpha:
        return [f"m={m}: {len(lambdas)} column heights for alpha={alpha}"]
    if any(a <= b for a, b in zip(lambdas, lambdas[1:])) or lambdas[-1] < 1:
        problems.append(f"m={m}: column heights are not strictly decreasing to >= 1")
    length = config.length(m)
    if sum(lambdas) != length:
        problems.append(f"m={m}: staircase encloses {sum(lambdas)} monomials, scheme length is {length}")
    if colength is not None and colength != length:
        problems.append(f"m={m}: reported colength {colength} != {length}")
    if config.kind == "shgh" and (alpha != shgh_alpha(config.r, m)
                                  or lambdas != shgh_lambdas(config.r, m)):
        problems.append(f"m={m}: staircase differs from the shgh closed form")
    problems += _check_degrees(config, m, alpha, lambdas[0])
    return problems


def _check_degrees(config: Config, m: int, alpha: int, zeta: int) -> list[str]:
    problems = []
    if zeta < alpha:
        problems.append(f"m={m}: zeta={zeta} below alpha={alpha}")
    if config.divisible(m):
        l = config.n
        if alpha != 2 * m - m // l or zeta != l * m:
            problems.append(f"m={m}: alpha={alpha}, zeta={zeta}; expected {2 * m - m // l}, {l * m}")
    if config.kind == "shgh":
        a = shgh_alpha(config.r, m)
        full = comb(a + 2, 2) - config.length(m) == a + 1
        if alpha != a or zeta != (a if full else a + 1):
            problems.append(f"m={m}: alpha={alpha}, zeta={zeta} differ from the shgh closed form")
    return problems


def _options(argv: list[str]) -> dict[str, str]:
    return {key[2:]: value for key, value in zip(argv[2::2], argv[3::2])}


def _header(config: Config, text: str) -> str:
    return text + (" (conjectural)" if config.kind == "shgh" else "")


def check_gin(config: Config, opts: dict[str, str], out: str) -> list[str]:
    m = int(opts["m"])
    if opts.get("format", "json") == "json":
        data = json.loads(out)
        alpha, lambdas = data["alpha"], data["lambdas"]
        problems = check_staircase(config, m, alpha, lambdas, data["colength"])
        if data["generators"] != [[alpha, 0]] + [[i, lambdas[i]] for i in range(alpha - 1, -1, -1)]:
            problems.append("generators disagree with the column heights")
        if (data["config"], data["m"], data["conjectural"]) != (config.spec, m, config.kind == "shgh"):
            problems.append("config, m or conjectural flag wrong")
        return problems
    lines = out.splitlines()
    if (len(lines) != 3 or lines[0] != _header(config, f"# {config.spec}, m={m}")
            or not lines[2].startswith("generators: ")):
        return ["text layout is not header, degrees, generators"]
    fields = dict(item.split("=") for item in lines[1].split())
    alpha, zeta, colength = int(fields["alpha"]), int(fields["zeta"]), int(fields["colength"])
    gens = []
    for token in lines[2].removeprefix("generators: ").split():
        match = _MONOMIAL.fullmatch(token)
        if token == "1" or not match:
            return [f"bad generator {token!r}"]
        x, y = match.group(1), match.group(2)
        gens.append((int(x or 1) if "x" in token else 0, int(y or 1) if "y" in token else 0))
    if gens[:1] != [(alpha, 0)] or [x for x, _ in gens[1:]] != list(range(alpha - 1, -1, -1)):
        return ["generators are not x^alpha then one per x-exponent below alpha"]
    lambdas = [y for _, y in reversed(gens[1:])]
    problems = check_staircase(config, m, alpha, lambdas, colength)
    if zeta != lambdas[0]:
        problems.append(f"zeta={zeta} but y-exponent of the last generator is {lambdas[0]}")
    return problems


def check_hilbert(config: Config, opts: dict[str, str], out: str) -> list[str]:
    m = int(opts["m"])
    lo, _, hi = opts["t-range"].partition("..")
    ts = list(range(int(lo), int(hi) + 1))
    fmt = opts.get("format", "text")
    lines = out.splitlines()
    if fmt == "json":
        data = json.loads(out)
        if (data["config"], data["m"], data["conjectural"]) != (config.spec, m, config.kind == "shgh"):
            return ["config, m or conjectural flag wrong"]
        rows = [tuple(row) for row in data["values"]]
    elif fmt == "csv":
        if lines[:1] != ["t,hilbert"]:
            return ["csv header missing"]
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    else:
        if lines[:1] != [_header(config, f"# {config.spec}, m={m}")]:
            return ["text header wrong"]
        rows = [tuple(int(part.split("=")[1]) for part in line.split()) for line in lines[1:]]
    if [t for t, _ in rows] != ts:
        return ["degrees differ from the requested range"]
    values = dict(rows)
    problems = []
    nef = config.nef_threshold(m)
    for t, v in rows:
        total = comb(t + 2, 2) if t >= 0 else 0
        expected = total - config.length(m)
        if not max(expected, 0) <= v <= total:
            problems.append(f"H({t})={v} outside [{max(expected, 0)}, {total}]")
        if (nef is not None and t >= nef or config.kind == "shgh") and v != max(expected, 0):
            problems.append(f"H({t})={v} but the count at this degree is {max(expected, 0)}")
        if t - 1 in values and not 0 <= v - values[t - 1] <= t + 1:
            problems.append(f"first difference at t={t} is {v - values[t - 1]}")
    if config.divisible(m):
        alpha = 2 * m - m // config.n
        if values.get(alpha - 1, 0) != 0 or values.get(alpha, 1) <= 0:
            problems.append(f"first positive degree is not 2m - m/l = {alpha}")
    return problems[:5]


def _svg_alphas(out: str) -> tuple[list[int], list[int]]:
    """m labels and alpha (from the outline point count) per polyline."""
    root = ET.fromstring(out)
    ns = root.tag[:-len("svg")]
    labels = [int(t.text.removeprefix("m=")) for t in root.iter(ns + "text")]
    alphas = []
    for line in root.iter(ns + "polyline"):
        pts = [tuple(map(float, p.split(","))) for p in line.get("points").split()]
        if any(b[0] < a[0] or b[1] < a[1] for a, b in zip(pts, pts[1:])):
            raise ValueError("outline is not a staircase")
        alphas.append((len(pts) - 1) // 2)
    return labels, alphas


def check_shape(config: Config, opts: dict[str, str], out: str) -> list[str]:
    ms = sorted({int(v) for v in opts["m-list"].split(",")})
    fmt = opts.get("format", "text")
    if fmt == "svg":
        labels, alphas = _svg_alphas(out)
        if labels != ms or len(alphas) != len(ms):
            return ["one labelled outline per multiplicity expected"]
        problems = []
        for m, alpha in zip(ms, alphas):
            if config.kind == "shgh" and alpha != shgh_alpha(config.r, m):
                problems.append(f"m={m}: outline has alpha={alpha}")
            if config.divisible(m) and alpha != 2 * m - m // config.n:
                problems.append(f"m={m}: outline has alpha={alpha}")
        return problems
    lines = out.splitlines()
    entries = []
    if fmt == "json":
        data = json.loads(out)
        predicted = data["predicted_intercepts"]
        predicted = tuple(predicted) if predicted is not None else None
        seshadri = data["seshadri_estimate"]
        problems = [] if data["config"] == config.spec else ["config wrong"]
        for e in data["entries"]:
            entries.append((e["m"], e["alpha"], e["zeta"], e["x_intercept"], e["y_intercept"],
                            e["colength"]))
            m = e["m"]
            if e["colength_over_m2"] != rational(Fraction(e["colength"], m * m)):
                problems.append(f"m={m}: colength/m^2 wrong")
            corners = [(Fraction(x) * m, Fraction(y) * m) for x, y in e["corners"]]
            heights = [int(y) for x, y in corners[:-1]]
            if [int(x) for x, _ in corners] != list(range(e["alpha"] + 1)) or corners[-1][1]:
                problems.append(f"m={m}: corners are not one per x-exponent up to alpha")
            else:
                problems += check_staircase(config, m, e["alpha"], heights, e["colength"])
    elif fmt == "csv":
        if lines[:1] != ["m,alpha,zeta,x_intercept,y_intercept,colength"]:
            return ["csv header missing"]
        entries = [(int(m), int(a), int(z), x, y, int(c))
                   for m, a, z, x, y, c in (line.split(",") for line in lines[1:])]
        predicted = seshadri = None
        problems = []
    else:
        if lines[0] != f"# {config.spec} ({_PROVENANCE[config.kind]})":
            return ["text header wrong"]
        pred = lines[1].removeprefix("predicted intercepts: ")
        predicted = None if pred.startswith("none") else tuple(pred.split(", "))
        seshadri = lines[-1].removeprefix("seshadri estimate: ")
        for line in lines[2:-1]:
            f = dict(item.split("=") for item in line.split())
            entries.append((int(f["m"]), int(f["alpha"]), int(f["zeta"]), f["x"], f["y"],
                            int(f["colength"])))
        problems = []
    if [e[0] for e in entries] != ms:
        return problems + ["entries do not list the requested multiplicities in order"]
    for m, alpha, zeta, x, y, length in entries:
        if length != config.length(m):
            problems.append(f"m={m}: colength {length} != {config.length(m)}")
        if x != rational(Fraction(alpha, m)) or y != rational(Fraction(zeta, m)):
            problems.append(f"m={m}: intercepts are not alpha/m and zeta/m")
        problems += _check_degrees(config, m, alpha, zeta)
    if fmt != "csv":
        if predicted != config.predicted():
            problems.append(f"predicted intercepts {predicted}")
        m, alpha = entries[-1][:2]
        if seshadri != rational(Fraction(alpha, config.r * m)):
            problems.append(f"seshadri estimate {seshadri}")
    return problems[:5]


def check_verify(config: Config, opts: dict[str, str], out: str) -> list[str]:
    if opts.get("format", "text") == "json":
        data = json.loads(out)
        ok = data["passed"] and all(c["passed"] for c in data["checks"]) and data["config"] == config.spec
    else:
        lines = out.splitlines()
        ok = (lines[0] == f"# verify {config.spec} --max-m {opts['max-m']}"
              and all(line.startswith("PASS ") for line in lines[1:-1])
              and lines[-1] == "all checks passed")
    return [] if ok else ["verification did not pass"]


_CHECKS = {"gin": check_gin, "hilbert": check_hilbert, "shape": check_shape, "verify": check_verify}


def check(argv: list[str], exit_code: int, out: str) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _CHECKS[argv[0]](Config(argv[1]), _options(argv), out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ET.ParseError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
