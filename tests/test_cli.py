"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from ginlab import cli
from ginlab.errors import ComputationGuardError
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


@pytest.mark.parametrize("m_list,message", [
    (",", "error: need at least one multiplicity\n"),
    ("0,2", "error: multiplicities must be positive\n"),
])
def test_bad_m_list_message(capsys, m_list, message):
    code, out, err = run_cli(capsys, ["shape", "general:6", "--m-list", m_list])
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv,message", [
    (["gin", "general:--6", "--m", "3"],
     "error: bad configuration 'general:--6'; expected kind:number\n"),
    (["gin", "general:\u00b2", "--m", "3"],
     "error: bad configuration 'general:\u00b2'; expected kind:number\n"),
    (["hilbert", "general:6", "--m", "3", "--t-range=--3..5"],
     "error: bad degree range '--3..5'; expected A..B\n"),
])
def test_malformed_numbers_get_parse_messages(capsys, argv, message):
    # a repeated sign or a non-decimal digit must not reach int()
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", message)


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_failed_verification_exits_one(capsys, monkeypatch):
    report = VerifyReport(
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


# stdout sha256 of one command per output route, to be kept byte for byte
GOLDEN = [
    ("gin shgh:10 --m 7",
     "11b2c4dcfa5343aec957a3bcbe0f152b4233d39c2e6b437ab064de0ef2cd48da"),
    ("gin shgh:13 --m 20 --format text",
     "eb14c3bc752b1bb6b78037492f34a8103707bdd67534d0e2a92dadf67546063e"),
    ("gin general:7 --m 24 --format text",
     "9ac51cc7ce546a97ddc7a417d9558bd87dd3fe2672dc9dd54afb79fa1e9248f3"),
    ("gin collinear:4 --m 12 --format text",
     "9e5e55214170723f566a40b5f20d50c032d9f250b0a4ff928ee6cd98030a5d2a"),
    ("hilbert general:6 --m 10 --t-range 20..30 --format csv",
     "174a2ec2c145d068a01004dced3cd87f73071e14c6686b8d5f1f6be1b3fb908d"),
    ("hilbert collinear:3 --m 6 --t-range 0..20 --format json",
     "b8335b1657ebd6e6ef7a3076ba106954b2f2bee83250dcb9dd8064a497a3ae78"),
    ("shape general:6 --m-list 10,20,30 --format json",
     "75563025c6ff089b17b926cde17618646ba4eed80659883552f27f334e7833ad"),
    ("shape general:8 --m-list 17,34 --format svg",
     "0de56292b9bb45ad699e9fa6acdb91fdfb97da507c0f2768d4024658d323460b"),
    ("shape shgh:10 --m-list 5,10,15 --format csv",
     "f3618505369788d8fc00319891a50aeb04948acc41dd184b66b0e6e423a2a0d9"),
    ("verify shgh:11 --max-m 12",
     "ea90603ca1f560007de8a436179235fdb8dbdba75f2c643491fa3f196f263899"),
    ("verify shgh:9 --max-m 8 --format json",
     "9eed3415e26cb8ddf8a50dc8c8cf2022c4703b448056f02762ff1dfbf525f344"),
    ("verify general:5 --max-m 10 --format json",
     "b97a577a306c99d44568819db3dfc79f1bd712b84d61aa599de45b9535e4fa70"),
    ("verify general:6 --max-m 10",
     "ef3a0a3153788546a8ab88e6632c142cf359c8c83a98ae4aecc20016fa023207"),
    ("verify collinear:3 --max-m 12",
     "f1dc69153c8692d2002ec9192aa13720170d1b434efb45351ae0fd7e0f6c93d7"),
    ("verify collinear:4 --max-m 12 --format json",
     "8bd342a5de96b38178e55bc2e73ce8e58a6bdc6130699243c1e94d1d27f5461d"),
    ("classes general:6 --format json",
     "a7b1a4254f5ce71a41f00cfc64635a2e150bebd158bdb211fab7d9692ca205e7"),
    ("classes collinear:4",
     "47a3fe717293fa4d794cce94cdfe19fb4f87beaaec623340c70e7958df190c92"),
    ("hilbert collinear:4 --m 12 --t-range 10..30",
     "606f86ece3b121091b58451dc153e9d06930ada7508c9b488b4d8b68bdb35eed"),
    ("shape general:7 --m-list 24,48",
     "a33c7b71dcf63a80adc40cf78f4d293bc536dba0bf0712fcee6e3f237c87742e"),
    ("shape collinear:3 --m-list 6,12,18",
     "32bac622f21538a92647db727458b040fd5705102e654ba250baaecb15dd4120"),
    ("shape collinear:4 --m-list 12,24 --format json",
     "b369fa1d4bd6f9223976a8a5712ff81ff8300432b4b63422481a8bf320bfef94"),
    ("shape shgh:10 --m-list 3,6,9 --format svg",
     "f467ce92815572bb66e3b915663c777d97d5225ca539135093eaac2ca7ca97f2"),
    ("gin general:6 --m 10",
     "667b2690b0b3137edb8f5d86ffa7fadb0694451ddab9b45a8e2b9e4f98a94551"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_output_bytes(capsys, command, digest):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
