"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from ginlab import cli
from ginlab.errors import ComputationGuardError
from ginlab.lattice import PointConfig
from ginlab.verify import VerifyCheck, VerifyReport


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gin_json_two_points(capsys):
    code, out, _ = run_cli(capsys, ["gin", "general:2", "--m", "1"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["config", "m", "alpha", "lambdas",
                                    "generators", "colength", "conjectural"]
    assert payload["config"] == "general:2"
    assert payload["alpha"] == 1
    assert payload["lambdas"] == [2]
    assert payload["generators"] == [[1, 0], [0, 2]]
    assert payload["colength"] == 2
    assert payload["conjectural"] is False


def test_gin_text(capsys):
    code, out, _ = run_cli(capsys, ["gin", "general:2", "--m", "1", "--format", "text"])
    assert code == 0
    assert "alpha=1 zeta=2 colength=2" in out
    assert "generators: x y^2" in out


def test_gin_conjectural_flag(capsys):
    code, out, _ = run_cli(capsys, ["gin", "shgh:9", "--m", "1"])
    assert code == 0
    assert json.loads(out)["conjectural"] is True


def test_hilbert_csv(capsys):
    code, out, _ = run_cli(capsys, ["hilbert", "general:6", "--m", "10",
                                    "--t-range", "23..26", "--format", "csv"])
    assert code == 0
    assert out == "t,hilbert\n23,0\n24,1\n25,21\n26,48\n"


def test_hilbert_text_single_degree(capsys):
    code, out, _ = run_cli(capsys, ["hilbert", "general:6", "--m", "10", "--t", "25"])
    assert code == 0
    assert out.splitlines() == ["# general:6, m=10", "t=25  H=21"]


def test_shape_csv(capsys):
    code, out, _ = run_cli(capsys, ["shape", "general:6", "--m", "10", "--format", "csv"])
    assert code == 0
    assert out == ("m,alpha,zeta,x_intercept,y_intercept,colength\n"
                   "10,24,26,12/5,13/5,330\n")


def test_shape_svg(capsys):
    code, out, _ = run_cli(capsys, ["shape", "general:6", "--m-list", "2,4",
                                    "--format", "svg"])
    assert code == 0
    assert out.startswith("<svg")
    assert out.endswith("</svg>\n")


def test_classes_text(capsys):
    code, out, _ = run_cli(capsys, ["classes", "general:2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# general:2 (proven): 3 negative curve classes"
    assert len(lines) == 4
    assert all("C.C=-1" in line and "C.K=-1" in line for line in lines[1:])


def test_verify_text_pass(capsys):
    code, out, _ = run_cli(capsys, ["verify", "collinear:3", "--max-m", "6"])
    assert code == 0
    assert "PASS class-list" in out
    assert out.rstrip().endswith("all checks passed")


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "stairs.json"
    code, out, _ = run_cli(capsys, ["gin", "general:6", "--m", "3"])
    assert code == 0
    code2 = cli.main(["gin", "general:6", "--m", "3", "--out", str(path)])
    capsys.readouterr()
    assert code2 == 0
    text = path.read_text(encoding="utf-8")
    assert text == out
    assert text.endswith("\n")


def test_config_file_supplies_flags(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"config": "general:2", "m": 1}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["gin", "--config-file", str(path)])
    assert code == 0
    assert json.loads(out)["generators"] == [[1, 0], [0, 2]]


def test_config_file_does_not_override_explicit_flags(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"config": "general:2", "m": 1}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["gin", "general:3", "--config-file", str(path)])
    assert code == 0
    assert json.loads(out)["config"] == "general:3"


def test_config_file_format_and_max_m_apply(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"format": "json", "max_m": 3}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["verify", "general:3", "--config-file", str(path)])
    assert code == 0
    assert json.loads(out)["max_m"] == 3
    code, out, _ = run_cli(capsys, ["verify", "general:3", "--config-file", str(path),
                                    "--format", "text", "--max-m", "50"])
    assert code == 0
    assert out.startswith("# verify general:3 --max-m 50\n")


@pytest.mark.parametrize("entry", [{"format": "csv"}, {"m": "1"}, {"m": True}])
def test_bad_config_file_entry_is_usage_error(tmp_path, capsys, entry):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"config": "general:2", "m": 1, **entry}), encoding="utf-8")
    code, _, err = run_cli(capsys, ["gin", "--config-file", str(path)])
    assert code == 2
    assert err.startswith("error: ")


def test_repeat_invocations_identical(capsys):
    argv = ["shape", "collinear:3", "--m-list", "6,12", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_fresh_processes_are_deterministic():
    argv = [sys.executable, "-m", "ginlab", "shape", "general:6",
            "--m-list", "2,4,6", "--format", "json"]
    a = subprocess.run(argv, capture_output=True, check=True)
    b = subprocess.run(argv, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")


@pytest.mark.parametrize("argv", [
    ["classes", "general:12"],
    ["classes", "shgh:9"],
    ["hilbert", "general:6", "--t", "5"],
    ["hilbert", "general:6", "--m", "10"],
    ["hilbert", "general:6", "--m", "10", "--t-range", "9..3"],
    ["hilbert", "general:6", "--m", "10", "--t-range", "abc"],
    ["gin", "--m", "1"],
    ["shape", "general:6", "--m-list", "0,2"],
    ["gin", "general:2", "--m", "1", "--format", "csv"],
])
def test_usage_errors_exit_two(capsys, argv):
    code, _, _ = run_cli(capsys, argv)
    assert code == 2


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_failed_verification_exits_one(capsys, monkeypatch):
    report = VerifyReport(
        config=PointConfig.general(2),
        max_m=5,
        checks=(VerifyCheck("colength", False, "forced failure"),),
    )
    monkeypatch.setattr("ginlab.verify.run_verification", lambda config, max_m: report)
    code, out, _ = run_cli(capsys, ["verify", "general:2"])
    assert code == 1
    assert "FAIL colength" in out


def test_guard_error_exits_three(capsys, monkeypatch):
    def explode(config, m):
        raise ComputationGuardError("forced guard")

    monkeypatch.setattr("ginlab.staircase.gin_staircase", explode)
    code, _, err = run_cli(capsys, ["gin", "general:2", "--m", "1"])
    assert code == 3
    assert "forced guard" in err
