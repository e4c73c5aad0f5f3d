"""Compare the command-line output and package surface of this checkout's src
with a git revision's.

    python tests/same_bytes.py REV

Unpacks `git archive REV src` into a temporary directory, then runs one
corpus under each tree, in one child process per tree that calls
`ginlab.cli.main` for every argv:

- the distinct argv of `bench/workloads.py` `commands` for seeds 1-3 of
  every workload;
- the GOLDEN and HELP_GOLDEN commands of tests/test_cli.py;
- `verify` on general:2-8, collinear:3-8 and shgh:9-16;
- EXTRA: large shape documents, whose SVG polyline comes in many pieces and
  whose JSON corners span many runs; large gin and hilbert documents, whose
  arrays and rows span many runs; gin documents at the digit and break-even
  boundaries of the range renderer, some with long and short runs in one
  array; every `hilbert` format at one degree; the
  ends of the gin text line; `classes` documents; usage errors; and
  `verify` at `--max-m` 60 and 100.

Then it runs PROCESSES, a short list, through `python -m ginlab` itself,
one child process per argv and tree, so that the exit path (`cli.run`'s
flush and `os._exit`) is compared too.

The corpus child also reports `sorted(ginlab.__all__)`, the package
surface, of its tree.

Prints each argv whose exit code, stdout sha256 or stderr differs, then a
count, then each name added to or removed from `ginlab.__all__`.  An output
change is allowed when the lines CHANGES.md gains since REV name its argv in
backticks (`gin general:2 --m 1`, or `python -m ginlab --help` for one of
PROCESSES), and a surface change when they name it as `ginlab.NAME`; it
exits 1 if any differing argv or changed name is not named there.  It reads
bench/ and tests/ and writes nothing there.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
VERIFY_CONFIGS = ([f"general:{r}" for r in range(2, 9)] + [f"collinear:{l}" for l in range(3, 9)]
                  + [f"shgh:{r}" for r in range(9, 17)])
VERIFY_FLAGS = (["--max-m", "12"], ["--max-m", "30", "--format", "json"])
EXTRA = [
    "shape shgh:16 --m-list 20000 --format svg",
    "shape shgh:16 --m-list 20000 --format json",
    # many runs: a gin document read in many CHUNK runs, from thousands of
    # staircase runs, and Hilbert values in runs of CHUNK ints
    "gin collinear:3 --m 20000 --format json",
    "gin collinear:3 --m 20000 --format text",
    "gin general:8 --m 5000",
    # exporters.render_ranges' boundaries: alpha = 1001, 10001 and 100001, so
    # the heights and x-exponents cross 1000, 10000 and 100000; general
    # staircases whose runs average 38.5 and 43.1 columns, with runs on each
    # side of exporters.BREAK_EVEN; and shgh staircases whose two runs, of
    # 1,014 and 17 and of 1,047 and 35 columns, put a table run and a
    # template run in one array
    *(f"gin {argv} --format {fmt}" for argv in ("shgh:16 --m 250", "shgh:15 --m 2582",
                                                "shgh:10 --m 31623", "general:7 --m 29",
                                                "general:7 --m 115", "shgh:10 --m 326",
                                                "shgh:13 --m 300") for fmt in ("json", "text")),
    "hilbert general:8 --m 30 --t-range 0..9000 --format json",
    "hilbert general:8 --m 30 --t-range 0..9000 --format text",
    "hilbert general:8 --m 30 --t-range 0..9000 --format csv",
    # one degree in each format, a range below zero, and the conjectural head line
    "hilbert collinear:3 --m 6 --t 9 --format text",
    "hilbert collinear:3 --m 6 --t 9 --format csv",
    "hilbert collinear:3 --m 6 --t 9 --format json",
    "hilbert general:6 --m 10 --t-range=-3..1 --format csv",
    "hilbert shgh:10 --m 4 --t-range 0..40",
    # the ends of the text line: alpha = 1, 2, 3, and column alpha - 1 at height 1
    "gin general:2 --m 1 --format text",
    "gin general:2 --m 2 --format text",
    "gin general:3 --m 1 --format text",
    "gin general:8 --m 1 --format text",
    "gin general:2 --m 1 --format svg",  # a format the command does not take
    "shape general:2 --m-list 1 --format pdf",
    "gin general:2 --m 0",
    "shape general:2 --m-list 0,1",
    "hilbert general:2 --m 1 --t-range 3..1",
    "gin general:2 --m 1 --m 2",  # a repeated flag
    "gin general:2 --m 1 --m-list 1",
    "gin general:9 --m 1",
    "classes",
    "classes general:8",  # 240 classes
    "classes general:2",
    "classes collinear:8 --format json",
    # verify where the graded-system and closed-form rows read many run
    # starts: m up to 50, and collinear staircases of about alpha/2 runs
    "verify general:7 --max-m 100",
    "verify shgh:9 --max-m 100 --format json",
    "verify collinear:4 --max-m 60",
]
# run through `python -m ginlab`: a document, help, a usage error, a refused
# value and a JSON document
PROCESSES = [
    "gin general:2 --m 1",
    "--help",
    "gin general:2 --m x",
    "gin general:2 --m 0",
    "verify general:3 --max-m 3 --format json",
]

# Runs in the child: argv lists as JSON lines on stdin; on stdout the sorted
# ginlab.__all__ as one JSON line, then one JSON line per argv, [exit code,
# stdout sha256, stderr].  COLUMNS is fixed by the parent, so help screens
# wrap alike.
CHILD = """
import hashlib, io, json, sys
import ginlab
from ginlab import cli
print(json.dumps(sorted(ginlab.__all__)))
real = sys.stdout
for line in sys.stdin:
    sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
    code = cli.main(json.loads(line))
    sys.stdout, sys.stderr = real, sys.__stderr__
    print(json.dumps([code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]),
          file=real)
"""


def golden_commands() -> list[list[str]]:
    """GOLDEN and HELP_GOLDEN of tests/test_cli.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("GOLDEN", "HELP_GOLDEN")
                                                for t in node.targets):
            found += [command.split() for command, _ in ast.literal_eval(node.value)]
    return found


def corpus() -> list[list[str]]:
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    argvs = [argv for name in sorted(workloads.WORKLOADS) for seed in SEEDS
             for argv in workloads.commands(name, seed)]
    argvs += golden_commands()
    argvs += [["verify", config, *flags] for config in VERIFY_CONFIGS for flags in VERIFY_FLAGS]
    argvs += [command.split() for command in EXTRA]
    return list(dict.fromkeys(map(tuple, argvs)))


def run_tree(src: Path, argvs: list[tuple[str, ...]]) -> tuple[list[str], list[list]]:
    """The sorted ginlab.__all__ under src, and [exit code, stdout sha256,
    stderr] of each argv under it: the corpus in one child, then each of
    PROCESSES in a `python -m ginlab` child."""
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    stdin = "".join(json.dumps(argv) + "\n" for argv in argvs)
    done = subprocess.run([sys.executable, "-c", CHILD], input=stdin, capture_output=True,
                          text=True, env=env, cwd=tempfile.gettempdir(), check=True)
    surface, *results = map(json.loads, done.stdout.splitlines())
    for command in PROCESSES:
        done = subprocess.run([sys.executable, "-m", "ginlab", *command.split()],
                              capture_output=True, env=env, cwd=tempfile.gettempdir())
        results.append([done.returncode, hashlib.sha256(done.stdout).hexdigest(),
                        done.stderr.decode("utf-8", "replace")])
    return surface, results


def added_changes(rev: str) -> str:
    """The lines CHANGES.md gains from rev to the working tree, joined."""
    diff = subprocess.run(["git", "-C", str(ROOT), "diff", "--unified=0", rev, "--", "CHANGES.md"],
                          capture_output=True, text=True, check=True).stdout
    return "\n".join(line[1:] for line in diff.splitlines()
                     if line.startswith("+") and not line.startswith("+++"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    argvs = corpus()
    labels = [" ".join(args) for args in argvs]
    labels += [f"python -m ginlab {command}" for command in PROCESSES]
    with tempfile.TemporaryDirectory() as workdir:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(workdir, filter="data")
        their_names, theirs = run_tree(Path(workdir) / "src", argvs)
    our_names, ours = run_tree(ROOT / "src", argvs)
    differing = [(a, t, o) for a, t, o in zip(labels, theirs, ours) if t != o]
    added = added_changes(argv[0])
    unnamed = [label for label, _, _ in differing if f"`{label}`" not in added]
    moved = [(f"ginlab.{name}", "removed") for name in their_names if name not in our_names]
    moved += [(f"ginlab.{name}", "added") for name in our_names if name not in their_names]
    unnamed_names = [name for name, _ in moved if f"`{name}`" not in added]
    for label, (code_t, sha_t, err_t), (code_o, sha_o, err_o) in differing:
        print(label if label in unnamed else f"{label} (named in CHANGES.md)")
        for what, before, after in (("exit", code_t, code_o), ("stdout sha256", sha_t, sha_o),
                                    ("stderr", err_t, err_o)):
            if before != after:
                print(f"  {what}: {before!r} -> {after!r}")
    print(f"{len(differing)} of {len(labels)} argv ({len(PROCESSES)} through python -m ginlab) "
          f"differ from {argv[0]}, {len(unnamed)} of them not named in CHANGES.md")
    for name, how in moved:
        print(f"{name} {how}" + ("" if name in unnamed_names else " (named in CHANGES.md)"))
    print(f"{len(moved)} names added to or removed from ginlab.__all__ since {argv[0]}, "
          f"{len(unnamed_names)} of them not named in CHANGES.md")
    return 1 if unnamed or unnamed_names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
