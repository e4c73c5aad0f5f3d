"""Self-tests of the benchmark: python3 -m pytest -q bench"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
import ginlab  # noqa: E402
import ginlab.cli  # noqa: E402
from ginlab import PointConfig  # noqa: E402


def ginlab_stdout(argv: list[str]) -> str:
    tracing.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ginlab.cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_command_list(workload):
    first = workloads.commands(workload, 7)
    assert first == workloads.commands(workload, 7)
    assert first != workloads.commands(workload, 8)
    assert len(first) == workloads.COMMANDS


@pytest.mark.parametrize("argv", [
    ["gin", "general:6", "--m", "10", "--format", "text"],
    ["gin", "collinear:4", "--m", "24", "--format", "text"],
    ["gin", "shgh:10", "--m", "30"],
    ["gin", "shgh:12", "--m", "7", "--format", "text"],
    ["hilbert", "collinear:3", "--m", "12", "--t-range", "18..40", "--format", "csv"],
    ["hilbert", "general:7", "--m", "24", "--t-range", "60..66", "--format", "json"],
    ["shape", "collinear:3", "--m-list", "6,12,18", "--format", "json"],
    ["shape", "shgh:11", "--m-list", "5,9", "--format", "svg"],
    ["shape", "general:5", "--m-list", "4,8", "--format", "text"],
    ["verify", "general:4", "--max-m", "6", "--format", "json"],
])
def test_checker_accepts_ginlab_output(argv):
    assert checks.check(argv, 0, ginlab_stdout(argv)) == []


def _raise_zeta(text: str) -> str:
    """Lift the pure y generator by one: one extra monomial outside the ideal."""
    header, degrees, gens = text.splitlines()
    *rest, last = gens.split(" ")
    zeta = int(last.removeprefix("y^"))
    degrees = degrees.replace(f"zeta={zeta} ", f"zeta={zeta + 1} ")
    return "\n".join([header, degrees, " ".join(rest + [f"y^{zeta + 1}"])]) + "\n"


def test_checker_rejects_colength_off_by_one():
    argv = ["gin", "general:6", "--m", "10", "--format", "text"]
    text = ginlab_stdout(argv)
    problems = checks.check(argv, 0, _raise_zeta(text))
    assert any("scheme length" in p for p in problems), problems
    header, degrees, gens = text.splitlines()
    colength = int(degrees.rsplit("=", 1)[1])
    wrong = "\n".join([header, degrees.replace(f"colength={colength}", f"colength={colength + 1}"),
                       gens])
    assert any("colength" in p for p in checks.check(argv, 0, wrong))

    argv = ["gin", "shgh:10", "--m", "30"]
    data = json.loads(ginlab_stdout(argv))
    data["lambdas"][0] += 1
    data["generators"][-1][1] += 1
    assert checks.check(argv, 0, json.dumps(data))


def test_corrupted_output_raises_fail_ratio():
    argv = ["gin", "collinear:3", "--m", "12", "--format", "text"]
    good = ginlab_stdout(argv).encode()
    tally = run.Tally([argv])
    tally.add(0, 0, good)
    tally.add(0, 0, good)
    assert (tally.attempted, tally.failed) == (2, 0)
    tally.add(0, 0, _raise_zeta(good.decode()).encode())  # differs from the first pass
    assert (tally.attempted, tally.failed) == (3, 1)
    tally = run.Tally([argv])
    bad = _raise_zeta(good.decode()).encode()
    tally.add(0, 0, bad)
    tally.add(0, 0, bad)  # the same wrong output again
    tally.add(0, 2, b"")
    assert (tally.attempted, tally.failed) == (3, 3)


def test_reference_spawns_set_the_local_speed():
    # a slow spell doubles the reference time from position 3 to 9
    ref_at, ref_wall = [1, 3, 5, 7, 9, 11], [0.1, 0.2, 0.2, 0.2, 0.2, 0.1]
    assert run.REF_SIDE == 1  # the ones just before and just after
    assert run.local_speed(ref_at, ref_wall, 6) == pytest.approx(0.2 / run.REF_SECONDS)
    assert run.local_speed(ref_at, ref_wall, 2) == pytest.approx(0.15 / run.REF_SECONDS)
    assert run.local_speed(ref_at, ref_wall, 12) == pytest.approx(0.1 / run.REF_SECONDS)


def _calls() -> list:
    general, collinear, shgh = (PointConfig.general(7), PointConfig.collinear_plus_one(5),
                                PointConfig.shgh(11))
    results = [ginlab.hilbert.alpha(general, 24), ginlab.hilbert.hilbert_fn(collinear, 20, 50),
               ginlab.staircase.gin_staircase(collinear, 40), ginlab.staircase.gin_staircase(shgh, 15),
               ginlab.lattice.h0(ginlab.DivisorClass.uniform(30, 11, 7), general),
               ginlab.shape.shape_report(general, [24, 48]),
               ginlab.verify.run_verification(PointConfig.general(3), 8)]
    infos = [tracing.cache_info(name) for name in tracing.CACHED]
    return results + infos


def test_wrappers_keep_values_and_cache_info():
    originals = {name: getattr(sys.modules[f"ginlab.{name.split('.')[0]}"], name.split(".")[1])
                 for name in tracing.Tracer().names}
    tracing.clear_caches()
    plain = _calls()
    tracing.clear_caches()
    tracer = tracing.Tracer()
    with tracer:
        assert ginlab.staircase.hilbert_fn is ginlab.hilbert.hilbert_fn is not originals["hilbert.hilbert_fn"]
        traced = _calls()
    assert traced == plain
    for name, fn in originals.items():
        module, attr = name.split(".")
        assert getattr(sys.modules[f"ginlab.{module}"], attr) is fn
    spans = tracer.layer_metrics()
    assert spans["hilbert.alpha.calls"] > 0 and spans["hilbert.alpha.hilbert_calls"] > 0
    assert spans["lattice.reduce_to_nef.calls"] > 0 and spans["lattice.reduce_to_nef.value"] > 0
    assert all(v >= 0 for k, v in spans.items() if k.endswith(".self_s"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
