"""Cold-process benchmark of the ginlab command line.

    python3 bench/run.py --workload divisor-gin --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is the checkout's
own src/.  A workload is a seeded list of workloads.COMMANDS ginlab
invocations.  One client runs them one after another (a closed loop, no
threads), each in a fresh `python -m ginlab` process, and goes over the list
once per PASS_SECONDS of --seconds.  Before each command it spawns
reference.py, and every time is scaled by how long the reference spawns
around it took, so that the drifting speed of a shared machine cancels.
Every output is checked by checks.py, which shares no code with ginlab;
later passes must reproduce the bytes of the first.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same list the
same number of times inside this process, each command once plain and once
with spans around each layer (tracing.py), and prints per-layer metrics.
The last line of stdout is one JSON object; the lines above it are for
people.  A record with the commands, the sha256 of every output and all
samples is written to bench/results/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 1
PASS_SECONDS = 15.0
SETUP_EVERY = 4  # one `import ginlab` spawn before every 4th command
COMMAND_TIMEOUT = 120.0
DEADLINE = 160.0  # no command starts after this many seconds of a run
IMPORT = ["-c", "import ginlab"]
# reference.py, spawned before every command to measure the machine's speed;
# -I keeps the checkout off its path
REFERENCE = ["-I", str(HERE / "reference.py")]
REF_SECONDS = 0.1  # times are reported as on a machine where REFERENCE takes this long
REF_SIDE = 1  # reference spawns on each side that set the speed around a time

END_TO_END = {"wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER = {
    "lattice.reduce_to_nef.calls": "count", "lattice.reduce_to_nef.self_s": "s",
    "lattice.reduce_to_nef.peel_steps": "count",
    "lattice.riemann_roch_h0.calls": "count", "lattice.riemann_roch_h0.self_s": "s",
    "lattice.is_nef.calls": "count", "lattice.is_nef.self_s": "s",
    "lattice.exceptional_classes.misses": "count",
    "hilbert.hilbert_fn.calls": "count", "hilbert.hilbert_fn.misses": "count",
    "hilbert.hilbert_fn.hit_ratio": "ratio", "hilbert.hilbert_fn.cache_entries": "count",
    "hilbert.hilbert_fn.self_s": "s",
    "hilbert.alpha.calls": "count", "hilbert.alpha.self_s": "s",
    "hilbert.alpha.hilbert_calls": "count",
    "hilbert.nef_threshold.calls": "count", "hilbert.nef_threshold.self_s": "s",
    "staircase.gin_staircase.calls": "count", "staircase.gin_staircase.misses": "count",
    "staircase.gin_staircase.self_s": "s",
    "staircase.xy_count.calls": "count", "staircase.xy_count.self_s": "s",
    "staircase.colength.self_s": "s",
    "staircase.shgh_gin_closed_form.calls": "count", "staircase.shgh_gin_closed_form.self_s": "s",
    **{f"exporters.{name}.{kind}": unit
       for name in ("staircase_json", "shape_json", "shape_csv", "shape_svg", "hilbert_csv")
       for kind, unit in (("self_s", "s"), ("bytes", "B"))},
    "shape.shape_report.self_s": "s", "shape.check_convergence.self_s": "s",
    "shape.collinear_shape_check.self_s": "s",
    "verify.run_verification.self_s": "s", "verify.brute_force_exceptional_classes.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
TAIL_RANK = 11  # cmd_tail_s is the 11th slowest command: 10 commands lie above it


class Checkout(Exception):
    """The checkout cannot be benchmarked (no src/ginlab, or it resolves elsewhere)."""


def child_env() -> dict[str, str]:
    """The caller's environment without GINLAB_* or PYTHON* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GINLAB_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def require_checkout() -> Path:
    init = SRC / "ginlab" / "__init__.py"
    if not init.is_file():
        raise Checkout(f"{init} not found; run from a checkout of the repository")
    return init.resolve()


class Launcher:
    """The small process that spawns and times each command (launcher.py)."""

    def __init__(self) -> None:
        RESULTS.mkdir(exist_ok=True)
        self.out, self.err = RESULTS / "stdout.tmp", RESULTS / "stderr.tmp"
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=child_env(), cwd=ROOT)
        self.pid = 0
        signal.signal(signal.SIGALRM, self._kill)

    def _kill(self, *_) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)

    def run(self, args: list[str], timeout: float) -> tuple[float, int, int, bytes]:
        """Wall seconds, exit code, peak RSS in KiB and stdout of one process."""
        request = [str(self.out), str(self.err), sys.executable, *args]
        self.proc.stdin.write("\t".join(request) + "\n")
        self.proc.stdin.flush()
        self.pid = int(self.proc.stdout.readline().split()[1])
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            wall, code, rss = self.proc.stdout.readline().split()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return float(wall), int(code), int(rss), self.out.read_bytes()

    def stderr(self) -> str:
        return self.err.read_text(errors="replace").strip()[-300:]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        for path in (self.out, self.err):
            path.unlink(missing_ok=True)


class Tally:
    """Per-command outputs, digests and problems across passes."""

    def __init__(self, cmds: list[list[str]]):
        self.records = [{"argv": cmd, "sha256": None, "correct": None, "problems": []}
                        for cmd in cmds]
        self.attempted = 0
        self.failed = 0

    def add(self, i: int, code: int, out: bytes, stderr: str = "") -> None:
        """Check one execution; a repeat must reproduce the first output."""
        rec = self.records[i]
        digest = hashlib.sha256(out).hexdigest()
        self.attempted += 1
        if rec["sha256"] is None:
            rec["sha256"] = digest
            problems = checks.check(rec["argv"], code, out.decode("utf-8", "replace"))
            rec["correct"] = not problems
        elif code != 0:
            problems = [f"exit code {code}"]
        elif digest != rec["sha256"]:
            problems = ["output differs from the first pass"]
        else:
            problems = []
        if problems or not rec["correct"]:
            self.failed += 1
        rec["problems"] += problems + ([stderr] if problems and stderr else [])


def passes(seconds: float) -> int:
    """Passes over the command list: one per PASS_SECONDS of the run."""
    return max(1, round(seconds / PASS_SECONDS))


def local_speed(ref_at: list[int], ref_wall: list[float], at: int) -> float:
    """How slow the machine ran around position `at` of the run: the median
    time of the REF_SIDE reference spawns before it and the REF_SIDE after
    it, over REF_SECONDS.  ref_at is ascending."""
    i = bisect.bisect(ref_at, at)
    return statistics.median(ref_wall[max(0, i - REF_SIDE):i + REF_SIDE]) / REF_SECONDS


def cold_run(cmds: list[list[str]], seconds: float, begin: float) -> tuple[dict, Tally, dict]:
    init = require_checkout()
    tally = Tally(cmds)
    # (position in the run, wall s) of every spawn, by what was spawned
    cmd_at: list[list[tuple[int, float]]] = [[] for _ in cmds]
    setup_at: list[tuple[int, float]] = []
    ref_at: list[int] = []
    ref_wall: list[float] = []
    rss_kb: list[list[int]] = [[] for _ in cmds]
    launcher = Launcher()

    position = 0

    def spawn(args: list[str], timeout: float = COMMAND_TIMEOUT) -> tuple:
        """Position in the run, wall s, exit code, peak RSS and stdout."""
        nonlocal position
        position += 1
        return (position, *launcher.run(args, timeout))

    try:
        *_, code, _, out = launcher.run(["-c", "import ginlab, sys; sys.stdout.write(ginlab.__file__)"],
                                        COMMAND_TIMEOUT)
        if code != 0 or Path(out.decode()).resolve() != init:
            raise Checkout(f"ginlab resolves to {out.decode()!r}, not {init}: {launcher.stderr()}")
        launcher.run(["-m", "ginlab", "classes", "general:2"], COMMAND_TIMEOUT)  # warm-up
        launcher.run(REFERENCE, COMMAND_TIMEOUT)
        for _ in range(passes(seconds)):
            for i, cmd in enumerate(cmds):
                at, wall, code, *_ = spawn(REFERENCE)
                if code != 0:
                    raise Checkout(f"the reference program failed: {launcher.stderr()}")
                ref_at.append(at)
                ref_wall.append(wall)
                if i % SETUP_EVERY == 0:
                    setup_at.append(spawn(IMPORT)[:2])
                remaining = DEADLINE - (perf_counter() - begin)
                if remaining <= 0:
                    raise TimeoutError(f"run deadline reached before command {i}")
                at, wall, code, rss, out = spawn(["-m", "ginlab", *cmd],
                                                 min(COMMAND_TIMEOUT, remaining))
                tally.add(i, code, out, launcher.stderr() if code else "")
                cmd_at[i].append((at, wall))
                rss_kb[i].append(rss)
        at, wall, *_ = spawn(REFERENCE)
        ref_at.append(at)
        ref_wall.append(wall)
    except TimeoutError as exc:
        tally.failed += 1
        tally.attempted += 1
        tally.records[0]["problems"].append(str(exc))
    finally:
        launcher.close()
    # every time is divided by how slow the machine ran around it, measured
    # by the reference spawns, and each command is taken at the median of
    # its passes
    def norm(samples: list[tuple[int, float]]) -> list[float]:
        return [wall / local_speed(ref_at, ref_wall, at) for at, wall in samples]

    times = sorted(statistics.median(norm(s)) for s in cmd_at if s)
    raw = sorted(statistics.median(wall for _, wall in s) for s in cmd_at if s)
    metrics = {
        "wall_s": sum(times),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": times[-TAIL_RANK],
        "peak_rss_mb": max(max(r) for r in rss_kb if r) * 1024 / 1e6,
        "setup_s": statistics.median(norm(setup_at)),
    }
    samples = {
        "unscaled": {"wall_s": sum(raw), "cmd_p50_s": statistics.median(raw),
                     "cmd_tail_s": raw[-TAIL_RANK],
                     "setup_s": statistics.median(wall for _, wall in setup_at),
                     "reference_s": statistics.median(ref_wall)},
        "reference": list(zip(ref_at, ref_wall)), "setup": setup_at, "commands": cmd_at,
        "command_maxrss_kib": rss_kb,
    }
    return metrics, tally, samples


def _run_in_process(argv: list[str]) -> tuple[float, int, bytes]:
    tracing.clear_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = sys.modules["ginlab.cli"].main(list(argv))
        wall = perf_counter() - start
    return wall, code, out.getvalue().encode()


def traced_run(workload: str, seed: int, cmds: list[list[str]], seconds: float,
               begin: float) -> tuple[dict, Tally, dict]:
    init = require_checkout()
    for key in [k for k in os.environ if k.startswith("GINLAB_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import ginlab.cli  # noqa: F401  (the checkout's copy, checked below)
    if Path(sys.modules["ginlab"].__file__).resolve() != init:
        raise Checkout(f"ginlab resolves to {sys.modules['ginlab'].__file__}, not {init}")

    tally = Tally(cmds)
    plain_walls, traced_walls, layers = [], [], []
    for _ in range(passes(seconds)):
        tracer = tracing.Tracer()
        stats = {name: [0, 0, 0] for name in tracing.CACHED}  # hits, misses, peak entries
        plain = traced = 0.0
        for i, cmd in enumerate(cmds):
            # alternate which run comes first: the first run of a command in
            # this process also pays for growing the heap
            for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                if not with_spans:
                    wall, code, out = _run_in_process(cmd)
                    plain += wall
                else:
                    with tracer:
                        wall, code, out = _run_in_process(cmd)
                    traced += wall
                    for name in tracing.CACHED:
                        info = tracing.cache_info(name)
                        stats[name][0] += info.hits
                        stats[name][1] += info.misses
                        stats[name][2] = max(stats[name][2], info.currsize)
                tally.add(i, code, out)
        plain_walls.append(plain)
        traced_walls.append(traced)
        layers.append(_layer_metrics(tracer.layer_metrics(), stats))
        if perf_counter() - begin > DEADLINE / 2:
            break
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{workload}-seed{seed}.spans", cmds)
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [layer[name] for layer in layers if name in layer]
        if not values:
            continue
        if unit in ("count", "B"):
            if len(set(values)) > 1:
                print(f"warning: {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(
        t / p for t, p in zip(traced_walls, plain_walls))
    samples = {"plain_pass_wall_s": plain_walls, "traced_pass_wall_s": traced_walls,
               "layers": layers}
    return metrics, tally, samples


def _layer_metrics(spans: dict, stats: dict) -> dict:
    out = {}
    for name in PER_LAYER:
        if name in spans:
            out[name] = spans[name]
        elif name.endswith((".peel_steps", ".bytes")):
            out[name] = spans[name.rsplit(".", 1)[0] + ".value"]
    for cached, (hits, misses, peak) in stats.items():
        out[f"{cached}.misses"] = misses
        if cached == "hilbert.hilbert_fn":
            out[f"{cached}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"{cached}.cache_entries"] = peak
    return out


def _summary(workload: str, seed: int, cmds: list, metrics: dict, tally: Tally,
             samples: dict, units: dict) -> None:
    count = len(samples.get("traced_pass_wall_s") or samples["commands"][0])
    print(f"workload {workload}, seed {seed}: {len(cmds)} commands, {count} pass(es)")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16{'d' if isinstance(value, int) else '.6g'}} {units[name]}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_ratio':<48} {ratio:>16.6g} ratio ({tally.failed} of {tally.attempted} failed)")
    if "unscaled" in samples:
        print("  as measured, before scaling by the reference: " + ", ".join(
            f"{name} {value:.6g}" for name, value in samples["unscaled"].items()))
    if "cmd_tail_s" in metrics:
        print(f"  cmd_tail_s is the {TAIL_RANK}th slowest of {len(cmds)} per-command times "
              f"(p{100 * (len(cmds) - TAIL_RANK + 1) // len(cmds)})")
    for rec in tally.records:
        if rec["problems"]:
            print(f"  FAILED {' '.join(rec['argv'])}: {'; '.join(rec['problems'][:3])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = perf_counter()
    cmds = workloads.commands(args.workload, args.seed)
    try:
        if args.trace:
            metrics, tally, samples = traced_run(args.workload, args.seed, cmds, args.seconds,
                                                 begin)
        else:
            metrics, tally, samples = cold_run(cmds, args.seconds, begin)
    except Checkout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    _summary(args.workload, args.seed, cmds, metrics, tally, samples, units)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "attempted": tally.attempted,
        "failed": tally.failed, "commands": tally.records, "samples": samples,
    }, indent=1) + "\n")
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
