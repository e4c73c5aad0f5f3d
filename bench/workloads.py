"""Seeded command lists for the benchmark workloads.

A workload is a fixed list of slots.  A slot fixes the subcommand, the
configuration and the size of its input; the seed picks the exact
multiplicities (within a few percent), the shgh point counts, the output
formats and the order.  Two seeds therefore give different inputs but close
to the same amount of work, so run-to-run spread reflects the program, not
the draw.  Every list has COMMANDS entries.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor

from checks import GENERAL_INTERCEPTS, Config

COMMANDS = 40


def _jitter(rng: random.Random, center: int, share: float = 0.03) -> int:
    return max(1, round(center * rng.uniform(1 - share, 1 + share)))


def _collinear_m(rng: random.Random, l: int, center: int) -> int:
    """Jittered multiplicity, snapped to a multiple of l(l-1) when that
    moves it by at most 2.5%, so the exact collinear degrees get checked."""
    m = _jitter(rng, center)
    step = l * (l - 1)
    if step <= 0.05 * m:
        m = max(step, round(m / step) * step)
    return m


def _balanced(rng: random.Random, choices: tuple[str, ...], count: int) -> list[str]:
    """count values cycling through choices, in seeded order."""
    values = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(values)
    return values


# (kind, n, m center) per gin slot; collinear costs grow like l^2 * m.
_DIVISOR_GIN = (
    *(("general", r, m) for r in (6, 7, 8) for m in (300, 1000, 2000)),
    ("general", 8, 2500),
    ("collinear", 3, 400), ("collinear", 3, 800), ("collinear", 3, 1200),
    ("collinear", 4, 300), ("collinear", 4, 600),
    ("collinear", 5, 200), ("collinear", 5, 400),
    ("collinear", 6, 150), ("collinear", 6, 300),
    ("collinear", 7, 100), ("collinear", 7, 250),
    ("collinear", 8, 80), ("collinear", 8, 200), ("collinear", 8, 450),
)
_DIVISOR_HILBERT = (
    *(("general", r, m) for r in (6, 7, 8) for m in (600, 2000)),
    ("collinear", 3, 200), ("collinear", 3, 500),
    ("collinear", 4, 150), ("collinear", 4, 300),
    ("collinear", 5, 100),
    ("collinear", 6, 60), ("collinear", 6, 150),
    ("collinear", 7, 50),
    ("collinear", 8, 40), ("collinear", 8, 100),
)


def divisor_gin(rng: random.Random) -> list[list[str]]:
    cmds = []
    for kind, n, center in _DIVISOR_GIN:
        m = _collinear_m(rng, n, center) if kind == "collinear" else _jitter(rng, center)
        cmds.append(["gin", f"{kind}:{n}", "--m", str(m), "--format", "text"])
    formats = _balanced(rng, ("text", "csv", "json"), len(_DIVISOR_HILBERT))
    for (kind, n, center), fmt in zip(_DIVISOR_HILBERT, formats):
        m = _collinear_m(rng, n, center) if kind == "collinear" else _jitter(rng, center)
        # the band from alpha (near gamma1*m, the limit x-intercept) to the
        # nef threshold
        gamma1 = GENERAL_INTERCEPTS[n][0] if kind == "general" else 2 - Fraction(1, n)
        lo = max(0, floor(gamma1 * m) - 2)
        hi = Config(f"{kind}:{n}").nef_threshold(m) + 2
        cmds.append(["hilbert", f"{kind}:{n}", "--m", str(m), "--t-range", f"{lo}..{hi}",
                     "--format", fmt])
    return cmds


# Target initial degree per shgh slot.  The cost and memory of
# `gin shgh:R --m M` follow alpha ~ M*sqrt(R), so the seed picks R and M
# follows from the target.  One 7 MB JSON staircase (M near 3.5*10^4) and a
# few M near 5*10^3 sit among many small ones, so a pass stays short.
_SHGH_JSON = (120_000,) + (18_000,) * 2 + (4_000,) * 17
_SHGH_TEXT = (60_000,) + (18_000,) * 2 + (4_000,) * 17


def shgh_gin(rng: random.Random) -> list[list[str]]:
    cmds = []
    for targets, fmt in ((_SHGH_JSON, []), (_SHGH_TEXT, ["--format", "text"])):
        for alpha_target in targets:
            r = rng.randint(9, 16)
            if alpha_target < 100_000:  # the largest staircase sets peak_rss_mb: no jitter
                alpha_target = _jitter(rng, alpha_target)
            m = round(alpha_target / r ** 0.5)
            cmds.append(["gin", f"shgh:{r}", "--m", str(m), *fmt])
    return cmds


# (config, --max-m center) per verify slot; shgh point counts are seeded.
_SWEEP_VERIFY = (
    ("general:2", 30), ("general:3", 30), ("general:4", 30), ("general:5", 30),
    ("general:6", 30), ("general:7", 24), ("general:8", 16),
    ("collinear:3", 30), ("collinear:4", 24), ("collinear:5", 20), ("collinear:6", 30),
    ("collinear:7", 14), ("collinear:8", 12),
    ("shgh", 40), ("shgh", 50), ("shgh", 60),
)
# (config, spacing, format) per shape slot: --m-list is six multiplicities
# spaced by `spacing`, from a seeded start.  For shgh the spacing is scaled
# by 3/sqrt(R) so that alpha, and with it memory, does not depend on the
# seeded R, and the start of a shgh list is jittered by only a few percent;
# the largest shgh slot sets peak_rss_mb.
_SWEEP_SHAPE = (
    ("general:2", 100, "text"), ("general:4", 100, "csv"),
    ("general:6", 10, "json"), ("general:6", 100, "svg"),
    ("general:7", 24, "text"), ("general:7", 96, "csv"),
    ("general:8", 17, "json"), ("general:8", 102, "svg"),
    ("collinear:3", 6, "csv"), ("collinear:3", 60, "json"),
    ("collinear:4", 12, "svg"), ("collinear:4", 36, "text"),
    ("collinear:5", 20, "json"), ("collinear:5", 30, "svg"),
    ("collinear:6", 10, "text"), ("collinear:6", 20, "csv"),
    ("collinear:7", 7, "svg"), ("collinear:8", 8, "text"),
    ("shgh", 40, "csv"), ("shgh", 80, "text"), ("shgh", 120, "svg"),
    ("shgh", 160, "csv"), ("shgh", 120, "json"), ("shgh", 200, "json"),
)


def sweep(rng: random.Random) -> list[list[str]]:
    cmds = []
    formats = _balanced(rng, ("text", "json"), len(_SWEEP_VERIFY))
    for (config, max_m), fmt in zip(_SWEEP_VERIFY, formats):
        if config == "shgh":
            config = f"shgh:{rng.randint(9, 16)}"
        cmds.append(["verify", config, "--max-m", str(_jitter(rng, max_m)), "--format", fmt])
    for config, spacing, fmt in _SWEEP_SHAPE:
        if config == "shgh":
            r = rng.randint(9, 16)
            config, spacing = f"shgh:{r}", round(spacing * 3 / r ** 0.5)
            # the largest m sets the memory: keep it within a few percent
            start = _jitter(rng, spacing)
        else:
            start = rng.randint(spacing // 2, spacing)
        ms = ",".join(str(start + spacing * i) for i in range(6))
        cmds.append(["shape", config, "--m-list", ms, "--format", fmt])
    return cmds


WORKLOADS = {"divisor-gin": divisor_gin, "shgh-gin": shgh_gin, "sweep": sweep}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The command list of a workload: same seed, same list."""
    rng = random.Random(f"{workload}/{seed}")
    cmds = WORKLOADS[workload](rng)
    if len(cmds) != COMMANDS:
        raise AssertionError(f"{workload} has {len(cmds)} slots, expected {COMMANDS}")
    rng.shuffle(cmds)
    return cmds
