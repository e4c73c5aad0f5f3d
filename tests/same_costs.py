"""Compare what each command of tests/same_bytes.py's corpus costs under this
checkout's src with what it costs under a git revision's.

    python tests/same_costs.py REV [--json PATH]

Unpacks `git archive REV src` into a temporary directory, then runs the
corpus in-process under each tree, in one child process per tree, both
children of this interpreter.  For each argv the child empties ginlab's
caches and records two deterministic costs:

- calls: how often each def of the tree's src/ginlab was entered, as
  module.qualname (a generator counts once, however often it resumes), from
  `sys.setprofile` call events;
- peak: the tracemalloc peak of a second run, caches emptied again, under
  a fixed hash seed.

Prints each argv whose calls differ or whose peak moves by more than
PEAK_NOISE, the largest relative change first, with the defs whose counts
moved, then a count.  `--json PATH` writes both trees' whole records.  Call
counts depend on the interpreter (3.12 inlines comprehensions, PEP 709), so
both trees run on this one.  It reads bench/ and tests/ and writes nothing
there.  It exits 1 if an argv's peak rises by more than PEAK_NOISE +
PEAK_RISE while the lines CHANGES.md gains since REV do not name that argv
in backticks (`gin general:2 --m 1`), as tests/same_bytes.py asks of
changed bytes.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from same_bytes import ROOT, added_changes, corpus

SHOWN_DEFS = 8  # per differing argv, the defs with the largest moves
# a peak that moves by no more than this share, with no call count moved, is
# the same: peaks of argparse's help and usage paths move by up to 0.8 %
# between two runs of one tree, since object addresses place some dict keys
PEAK_NOISE = 0.01
# a peak that rises past PEAK_NOISE by more than this share fails unless
# CHANGES.md names its argv: small peaks of a few tens of KB moved by
# 1.3-7.8 KB when a change kept a few more objects alive
PEAK_RISE = 0.05

# Runs in the child: argv lists as JSON lines on stdin; on stdout one JSON
# line per argv, {"calls": {module.qualname: count}, "peak": bytes}.
CHILD = """
import gc, io, json, os, sys, tracemalloc
import ginlab
from ginlab import cli
package = os.path.dirname(ginlab.__file__) + os.sep
GENERATOR = 0x20 | 0x80 | 0x200  # CO_GENERATOR, CO_COROUTINE, CO_ASYNC_GENERATOR

def clear():
    for name, module in list(sys.modules.items()):
        if name.startswith("ginlab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

def quiet(argv):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        cli.main(argv)
    finally:
        sys.stdout, sys.stderr = real, sys.__stderr__

real = sys.stdout
for line in sys.stdin:
    argv = json.loads(line)
    calls, resumed = {}, set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            if code.co_flags & GENERATOR:
                if frame in resumed:
                    return
                resumed.add(frame)
            name = os.path.basename(code.co_filename)[:-3] + "." + getattr(code, "co_qualname", code.co_name)
            calls[name] = calls.get(name, 0) + 1

    clear()
    sys.setprofile(profile)
    try:
        quiet(argv)
    finally:
        sys.setprofile(None)
    resumed.clear()
    clear()
    gc.collect()
    tracemalloc.start()
    try:
        quiet(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({"calls": calls, "peak": peak}), file=real, flush=True)
"""


def run_tree(src: Path, argvs: list[tuple[str, ...]]) -> list[dict]:
    """The record of each argv under src, from one child of this interpreter."""
    # a fixed hash seed, so that set and dict layouts, and with them the peaks, repeat
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80", "PYTHONHASHSEED": "0"}
    stdin = "".join(json.dumps(argv) + "\n" for argv in argvs)
    done = subprocess.run([sys.executable, "-c", CHILD], input=stdin, capture_output=True,
                          text=True, env=env, cwd=tempfile.gettempdir(), check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def relative(before: int, after: int) -> float:
    """(after - before) / before of two counts; inf when only after is nonzero."""
    if before:
        return (after - before) / before
    return math.inf if after else 0.0


def differences(theirs: dict[str, dict], ours: dict[str, dict]) -> list[dict]:
    """Each argv in both records whose calls differ or whose peak moves by
    more than PEAK_NOISE, as {"argv", "peak": (before, after), "calls":
    [(def, before, after), ...], "change"}: the defs whose counts moved, the
    largest move first, and the largest relative change among them and the
    peak's, leaving out defs that only one tree enters.  Sorted by the size
    of that change, the largest first; an argv in one record only is left
    out."""
    found = []
    for label in theirs.keys() & ours.keys():
        before, after = theirs[label], ours[label]
        names = before["calls"].keys() | after["calls"].keys()
        moved = [(name, before["calls"].get(name, 0), after["calls"].get(name, 0)) for name in names]
        moved = sorted(((name, b, a) for name, b, a in moved if b != a),
                       key=lambda row: (-abs(row[2] - row[1]), row[0]))
        peak = (before["peak"], after["peak"])
        if moved or abs(relative(*peak)) > PEAK_NOISE:
            changes = [relative(b, a) for _, b, a in moved] + [relative(*peak)]
            change = max((rate for rate in changes if math.isfinite(rate)), key=abs, default=0.0)
            found.append({"argv": label, "peak": peak, "calls": moved, "change": change})
    return sorted(found, key=lambda row: (-abs(row["change"]), row["argv"]))


def percent(rate: float) -> str:
    return f"{rate:+.1%}" if math.isfinite(rate) else "new"


def report(rows: list[dict], total: int, rev: str) -> list[str]:
    """The lines main prints for the differences against rev."""
    lines = []
    for row in rows:
        (before, after) = row["peak"]
        lines.append(f"{row['argv']}: peak {before} -> {after} B ({percent(relative(before, after))})")
        for name, b, a in row["calls"][:SHOWN_DEFS]:
            lines.append(f"  {name}: {b} -> {a} calls ({percent(relative(b, a))})")
        if len(row["calls"]) > SHOWN_DEFS:
            lines.append(f"  ... and {len(row['calls']) - SHOWN_DEFS} more defs")
    lines.append(f"{len(rows)} of {total} argv differ in calls or peak from {rev} "
                 f"(Python {sys.version.split()[0]}; counts differ across versions)")
    return lines


def unnamed_rises(rows: list[dict], added: str) -> list[str]:
    """The argv of differences' rows whose peak rises by more than
    PEAK_NOISE + PEAK_RISE and that the added CHANGES.md lines do not name
    in backticks."""
    return [row["argv"] for row in rows
            if relative(*row["peak"]) > PEAK_NOISE + PEAK_RISE and f"`{row['argv']}`" not in added]


def records(rev: str) -> tuple[dict[str, dict], dict[str, dict]]:
    """Each corpus argv's record under rev's src and under this checkout's."""
    argvs = corpus()
    labels = [" ".join(args) for args in argvs]
    with tempfile.TemporaryDirectory() as workdir:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(workdir, filter="data")
        theirs = dict(zip(labels, run_tree(Path(workdir) / "src", argvs)))
    return theirs, dict(zip(labels, run_tree(ROOT / "src", argvs)))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 3) or (len(argv) == 3 and argv[1] != "--json"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    theirs, ours = records(rev)
    rows = differences(theirs, ours)
    print("\n".join(report(rows, len(ours), rev)))
    if len(argv) == 3:
        with open(argv[2], "w", encoding="utf-8") as handle:
            json.dump({"python": sys.version, "rev": rev, "theirs": theirs, "ours": ours}, handle)
    unnamed = unnamed_rises(rows, added_changes(rev))
    for label in unnamed:
        print(f"{label}: peak rises by more than {PEAK_NOISE + PEAK_RISE:.0%}, not named in CHANGES.md")
    print(f"{len(unnamed)} argv whose peak rises by more than {PEAK_NOISE + PEAK_RISE:.0%} "
          f"are not named in CHANGES.md")
    return 1 if unnamed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
