"""Compare the command-line output of this checkout's src with a git revision's.

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
  arrays span many runs; the ends of the gin text line; and usage errors.

Prints each argv whose exit code, stdout sha256 or stderr differs, then a
count, and exits 1 if any argv differs.  It reads bench/ and tests/ and
writes nothing there.
"""

from __future__ import annotations

import ast
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
    "hilbert general:8 --m 30 --t-range 0..9000 --format json",
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
]

# Runs in the child: argv lists as JSON lines on stdin, one JSON line per argv
# on stdout, [exit code, stdout sha256, stderr].  COLUMNS is fixed by the
# parent, so help screens wrap alike.
CHILD = """
import hashlib, io, json, sys
from ginlab import cli
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


def run_tree(src: Path, argvs: list[tuple[str, ...]]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    stdin = "".join(json.dumps(argv) + "\n" for argv in argvs)
    done = subprocess.run([sys.executable, "-c", CHILD], input=stdin, capture_output=True,
                          text=True, env=env, cwd=tempfile.gettempdir(), check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    argvs = corpus()
    with tempfile.TemporaryDirectory() as workdir:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(workdir, filter="data")
        theirs = run_tree(Path(workdir) / "src", argvs)
    ours = run_tree(ROOT / "src", argvs)
    differing = [(a, t, o) for a, t, o in zip(argvs, theirs, ours) if t != o]
    for args, (code_t, sha_t, err_t), (code_o, sha_o, err_o) in differing:
        print(" ".join(args))
        for what, before, after in (("exit", code_t, code_o), ("stdout sha256", sha_t, sha_o),
                                    ("stderr", err_t, err_o)):
            if before != after:
                print(f"  {what}: {before!r} -> {after!r}")
    print(f"{len(differing)} of {len(argvs)} argv differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
