"""Command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import collections
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginlab import MonomialStaircase, PointConfig, cli, gin_staircase
from ginlab.errors import ComputationGuardError
from ginlab.exporters import CHUNK
from ginlab.verify import VerifyCheck, VerifyReport
from oracles import expected_generator_line, shgh_with_alpha, staircase_of


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ginlab_popen(argv, **kwargs) -> subprocess.Popen:
    """python -m ginlab ARGV as a child process, its streams buffered as in a
    plain shell (PYTHONUNBUFFERED dropped) and help wrapped at 80 columns."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), COLUMNS="80")
    return subprocess.Popen([sys.executable, "-m", "ginlab", *argv], env=env, **kwargs)


def run_process(argv, **kwargs) -> tuple[int, bytes, bytes]:
    """The exit code, stdout and stderr of ginlab_popen(argv), both streams
    captured unless kwargs route them."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    with ginlab_popen(argv, **kwargs) as proc:
        out, err = proc.communicate(timeout=60)
    return proc.returncode, out, err


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


def gin_text_lines(capsys, config: str, m: int) -> list[str]:
    code, out, _ = run_cli(capsys, ["gin", config, "--m", str(m), "--format", "text"])
    assert code == 0
    return out.splitlines()


@pytest.mark.parametrize("config", [*(f"general:{r}" for r in range(2, 9)),
                                    *(f"collinear:{l}" for l in range(3, 9)),
                                    *(f"shgh:{r}" for r in range(9, 17))])
def test_gin_text_generators_match_pairs(capsys, config):
    for m in range(1, 41):
        s = gin_staircase(PointConfig.parse(config), m)
        assert gin_text_lines(capsys, config, m)[2] == expected_generator_line(s), m


# the columns written without the x^%dy^%d template: alpha = 1, a height-1
# column at x-exponent 1, and at alpha - 1 >= 2 (the shgh eta = alpha + 1 case)
@pytest.mark.parametrize("config,m,line", [
    ("general:2", 1, "generators: x y^2"),
    ("general:3", 1, "generators: x^2 xy y^2"),
    ("shgh:10", 1, "generators: x^4 x^3y x^2y^2 xy^3 y^4"),
])
def test_gin_text_edge_columns(capsys, config, m, line):
    assert gin_text_lines(capsys, config, m)[2] == line


# the x^%dy^%d columns, alpha - 2 or alpha - 3 down to 2, on each side of one chunk
@pytest.mark.parametrize("a", [CHUNK + 1, CHUNK + 2, CHUNK + 3])
def test_gin_text_generators_across_chunk_boundaries(capsys, a):
    s = shgh_with_alpha(a)
    assert gin_text_lines(capsys, str(s.config), s.m)[2] == expected_generator_line(s)


def test_gin_conjectural_flag(capsys):
    code, out, _ = run_cli(capsys, ["gin", "shgh:9", "--m", "1"])
    assert code == 0
    assert json.loads(out)["conjectural"] is True


def test_hilbert_csv(capsys):
    code, out, _ = run_cli(capsys, ["hilbert", "general:6", "--m", "10",
                                    "--t-range", "23..26", "--format", "csv"])
    assert code == 0
    assert out == "t,hilbert\n23,0\n24,1\n25,21\n26,48\n"


def test_hilbert_range_below_zero_in_equals_form(capsys):
    # after a space argparse takes "-3..1" for a flag; joined by "=" it is the value
    code, out, _ = run_cli(capsys, ["hilbert", "general:6", "--m", "10", "--t-range=-3..1"])
    assert code == 0
    assert out.splitlines() == ["# general:6, m=10", *(f"t={t}  H=0" for t in range(-3, 2))]


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
    # a flag hides the file's entry for its list form too
    path.write_text(json.dumps({"t_range": "20..22"}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["hilbert", "general:6", "--m", "10", "--t", "25",
                                    "--config-file", str(path)])
    assert code == 0
    assert out == "# general:6, m=10\nt=25  H=21\n"
    path.write_text(json.dumps({"m_list": "4,8"}), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["shape", "general:6", "--m", "10", "--format", "json",
                                    "--config-file", str(path)])
    assert code == 0
    assert [e["m"] for e in json.loads(out)["entries"]] == [10]


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
    argv = ["shape", "general:6", "--m-list", "2,4,6", "--format", "json"]
    a, b = run_process(argv), run_process(argv)
    assert a == b
    assert a[0] == 0
    assert a[1].endswith(b"\n")


# one small command per subcommand and format, then --help and a usage error,
# each with its exit code
PROCESS_CASES = [
    *(([name, spec, "--format", fmt, *flags], 0)
      for name, spec, flags in [("classes", "collinear:4", []),
                                ("hilbert", "general:6", ["--m", "10", "--t-range", "20..30"]),
                                ("gin", "shgh:10", ["--m", "7"]),
                                ("shape", "general:7", ["--m-list", "8,16"]),
                                ("verify", "collinear:3", ["--max-m", "4"])]
      for fmt in cli._BY_NAME[name][3]),
    (["--help"], 0),
    (["gin", "general:2", "--m", "x"], 2),
]


@pytest.mark.parametrize("argv,code", PROCESS_CASES, ids=[" ".join(a) for a, _ in PROCESS_CASES])
def test_process_matches_main(capsys, monkeypatch, argv, code):
    # python -m ginlab ends through run, which flushes and skips interpreter
    # teardown; what it leaves must be what main returns and writes
    monkeypatch.setenv("COLUMNS", "80")
    expected = run_cli(capsys, argv)
    assert expected[0] == code
    assert run_process(argv) == (code, expected[1].encode(), expected[2].encode())


def test_process_writes_a_large_document_whole(capsys, tmp_path):
    # 555 kB, past a 64 KiB pipe buffer, so the reader drains it while it is written
    argv = ["gin", "shgh:16", "--m", "3000"]
    code, out, _ = run_cli(capsys, argv)
    piped = run_process(argv)
    written = run_process([*argv, "--out", str(tmp_path / "gin.json")])
    assert (code, piped[0], piped[2], written) == (0, 0, b"", (0, b"", b""))
    assert len(piped[1]) > 64 * 1024
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert hashlib.sha256(piped[1]).hexdigest() == digest
    assert hashlib.sha256((tmp_path / "gin.json").read_bytes()).hexdigest() == digest


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["gin", "general:3", "--m", "3"], ["--help"]], ids=["gin", "help"])
def test_full_device_is_one_error_line(argv):
    # gin's own flush fails in main; the help, which argparse leaves in the
    # buffer, fails only in run's final flush
    with open("/dev/full", "wb") as full:
        result = run_process(argv, stdout=full)
    assert result == (2, None, b"error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,full", [
    (["gin", "general:2", "--m", "0"], ("stderr",)),
    (["gin", "general:2", "--m", "x"], ("stderr",)),
    (["gin", "general:2", "--m", "1"], ("stdout", "stderr")),
    (["--help"], ("stdout", "stderr")),
], ids=["bad-value", "usage", "gin", "help"])
def test_unwritable_stderr_keeps_the_exit_code(argv, full):
    # the error line is dropped, and the code is still the one it explains
    with open("/dev/full", "wb") as sink:
        result = run_process(argv, **dict.fromkeys(full, sink))
    assert result == (2, *(None if name in full else b"" for name in ("stdout", "stderr")))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unbuffered_help_on_a_full_device_is_one_error_line():
    # with -u the help's own write fails, inside argparse, which would drop it
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-u", "-m", "ginlab", "--help"],
                                stdout=full, stderr=subprocess.PIPE, env=env)
    assert (result.returncode, result.stderr) == (2, b"error: [Errno 28] No space left on device\n")


def test_closed_descriptor_one(capsys, monkeypatch):
    # descriptor 1 closed at start leaves sys.stdout None: a command exits 2
    # with one error line, and argparse writes the help to stderr instead
    closed = {"stdout": None, "preexec_fn": functools.partial(os.close, 1)}
    assert run_process(["gin", "general:2", "--m", "1"], **closed) == (
        2, None, b"error: stdout is closed\n")
    monkeypatch.setenv("COLUMNS", "80")
    _, help_text, _ = run_cli(capsys, ["--help"])
    assert run_process(["--help"], **closed) == (0, None, help_text.encode())


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


# argparse's layout and messages differ between Python versions; these are 3.11's
argparse_311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                  reason="help and usage bytes pinned on Python 3.11")

# stdout sha256 of each help screen at 80 columns
HELP_GOLDEN = [
    ("--help", "0e77dfcaf1ce6a14e1257088c99dddfe5cb38f8e2959a5aa30af36038cf041f3"),
    ("classes --help", "61cf5c92403ad11f0bcf27e9da57b090c665c3c501c90f9e3958d1c13620d48b"),
    ("hilbert --help", "a18e6404df7b3919b22e2ce3859797313630fae1f5bd118fc048d1a924f3f952"),
    ("gin --help", "30300599235e32ea817935e0aaedf693960515adcf031bdf0ca988c2f19bc794"),
    ("shape --help", "e4716dc52834579934db660d6606a70eef4c277ad996338ffac0b49bf3e3d973"),
    ("verify --help", "526ab0af13faa0300fa3211075b11de23a677ef9956642954a14d717f653e5b1"),
]


@argparse_311
@pytest.mark.parametrize("command,digest", HELP_GOLDEN, ids=[c for c, _ in HELP_GOLDEN])
def test_help_screen_bytes(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code, out, err = run_cli(capsys, command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@argparse_311
def test_usage_error_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, ["gin", "general:2", "--m", "1", "--format", "csv"])
    assert (code, out) == (2, "")
    assert err == ("usage: ginlab gin [-h] [--config-file CONFIG_FILE] [--format {json,text}]\n"
                   "                  [--out OUT] [--m M]\n"
                   "                  [config]\n"
                   "ginlab gin: error: argument --format: invalid choice: 'csv' "
                   "(choose from 'json', 'text')\n")


def parsed(argv):
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}")


# one plain argv per subcommand; the format is appended, as benchmark commands do
PLAIN_ARGV = {
    "classes": ["classes", "general:6"],
    "hilbert": ["hilbert", "general:6", "--m", "10", "--t-range", "20..25"],
    "gin": ["gin", "collinear:3", "--m", "12"],
    "shape": ["shape", "shgh:10", "--m-list", "2,4"],
    "verify": ["verify", "general:3", "--max-m", "3"],
}


@pytest.mark.parametrize("argv", [[*PLAIN_ARGV[name], "--format", fmt]
                                  for name, _, _, formats, _ in cli._COMMANDS for fmt in formats],
                         ids=" ".join)
def test_plain_reader_serves_every_command_and_format(argv):
    plain = cli._read_plain(argv)
    assert plain is not None
    assert vars(plain) == parsed(argv)


_FLAGS = sorted({"--config-file", "--format", "--out",
                 *(flag for row in cli._COMMANDS for flag, _, _ in row[4])})
_FORMATS = sorted({fmt for row in cli._COMMANDS for fmt in row[3]} | {"xml"})
_WORDS = ["--form", "--m=3", "-h", "--help", "--", "", "-3", "+3", "1_0", " 7", "3", "x",
          "general:6", "2,4", "20..25", "-3..1", "--t-range=-3..1", *_FORMATS]
_COMMAND_NAMES = [row[0] for row in cli._COMMANDS]
# a soup of every token, and argvs shaped like the plain form with drawn flags and values
_SOUP = st.lists(st.sampled_from(_COMMAND_NAMES + _FLAGS + _WORDS), max_size=9)
_SHAPED = st.builds(
    lambda name, config, pairs: [name, *config, *(word for pair in pairs for word in pair)],
    st.sampled_from(_COMMAND_NAMES + ["bogus", "-h"]),
    st.lists(st.sampled_from(_WORDS), max_size=1),
    st.lists(st.tuples(st.sampled_from(_FLAGS + ["--form", "--m=3", "-h"]),
                       st.sampled_from(_WORDS + ["-3", "1", "7"])), max_size=4))


@settings(max_examples=600, deadline=None)
@given(st.one_of(_SOUP, _SHAPED))
@example(["gin", "general:2", "--format", "csv", "--format", "text"])  # argparse checks each
def test_plain_reader_matches_argparse(argv):
    plain = cli._read_plain(argv)
    if plain is not None:
        assert vars(plain) == parsed(argv)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_block(section: str, language: str) -> list[str]:
    block = re.search(rf"^## {section}\n.*?^```{language}\n(.*?)^```", README, re.M | re.S)
    return block.group(1).splitlines()


# each key the README documents for --config-file, with a command that uses it
FILE_KEY_CASES = [
    ("config", "general:3", ["classes"]),
    ("m", 2, ["gin", "general:2"]),
    ("m_list", "4,8", ["shape", "general:6"]),
    ("t", 25, ["hilbert", "general:6", "--m", "10"]),
    ("t_range", "23..26", ["hilbert", "general:6", "--m", "10"]),
    ("format", "json", ["classes", "general:2"]),
    ("out", "written.txt", ["gin", "general:2", "--m", "1"]),
    ("max_m", 3, ["verify", "general:2"]),
]


def test_readme_lists_exactly_the_config_file_keys():
    listed = re.search(r"`--config-file FILE` reads any of\s+the flags \(([^)]*)\)", README).group(1)
    documented = re.findall(r"`(\w+)`", listed)
    assert documented == [key for key, _, _ in FILE_KEY_CASES]
    assert set(documented) == set(cli._FILE_KEYS)


@pytest.mark.parametrize("key,value,argv", FILE_KEY_CASES, ids=[k for k, _, _ in FILE_KEY_CASES])
def test_config_file_key_is_honoured(tmp_path, capsys, monkeypatch, key, value, argv):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    written = tmp_path / "written.txt"

    def outcome(extra):
        code, out, err = run_cli(capsys, argv + extra)
        text = written.read_text(encoding="utf-8") if written.exists() else None
        written.unlink(missing_ok=True)
        return code, out, err, text

    flag = [value] if key == "config" else ["--" + key.replace("_", "-"), str(value)]
    from_file = outcome(["--config-file", str(path)])
    assert from_file[0] == 0
    assert from_file == outcome(flag)
    assert from_file != outcome([])


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the relative --out lands here
    commands = [line.split()[1:] for line in readme_block("CLI", "sh") if line.startswith("ginlab ")]
    assert len(commands) == 6
    for argv in commands:
        assert run_cli(capsys, argv)[0] == 0, argv
    assert (tmp_path / "shape.svg").read_text(encoding="utf-8").startswith("<svg")


def test_readme_library_example_values():
    namespace: dict = {}
    checked = []
    for line in readme_block("Library", "python"):
        code, _, value = line.partition("#")
        if value:
            checked.append((repr(eval(code, namespace)), value.strip()))
        elif code.strip():
            exec(code, namespace)
    assert checked == [(value, value) for value in (
        "24", "21", "((24, 0), (23, 2), (22, 3))", "['12/5', '5/2']", "True")]


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


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhaust(config, m):
        raise MemoryError

    monkeypatch.setattr("ginlab.staircase.gin_staircase", exhaust)
    code, out, err = run_cli(capsys, ["gin", "general:2", "--m", "1"])
    assert (code, out) == (2, "")
    assert err == "error: out of memory running gin; try a smaller input\n"


def test_out_of_memory_while_parsing_names_no_command(capsys, monkeypatch):
    # "--m=3" is not a plain argv, so argparse reads it; running out there
    # leaves no parsed command to name
    class Exhausted:
        def parse_args(self, argv):
            raise MemoryError

    monkeypatch.setattr(cli, "build_parser", Exhausted)
    code, out, err = run_cli(capsys, ["gin", "general:2", "--m=3"])
    assert (code, out) == (2, "")
    assert err == "error: out of memory; try a smaller input\n"


@pytest.mark.parametrize("argv,read", [
    # 555 kB of JSON and 158 kB of text, both past a 64 KiB pipe buffer, so a
    # write meets the closed pipe while the process still runs
    (["gin", "shgh:16", "--m", "3000"], 10),
    (["gin", "shgh:16", "--m", "3000", "--format", "text"], 10),
    # the reader is gone before the process starts: gin's own flush meets the
    # closed pipe in main, the help, which argparse leaves in the buffer, only
    # run's final flush
    (["gin", "general:2", "--m", "1"], 0),
    (["--help"], 0),
], ids=["json", "text", "gone-gin", "gone-help"])
def test_closed_stdout_ends_quietly(argv, read):
    reader, writer = os.pipe()
    if not read:
        os.close(reader)
    with ginlab_popen(argv, stdout=writer, stderr=subprocess.PIPE) as proc:
        os.close(writer)
        if read:
            with open(reader, "rb") as pipe:
                assert len(pipe.read(read)) == read
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")  # no "Broken pipe" usage error, no "Exception ignored"


def test_closed_stdout_keeps_the_failed_verify_code(tmp_path, capsys, monkeypatch):
    class ClosedPipe(io.TextIOBase):
        def writelines(self, lines):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return sink.fileno()

    report = VerifyReport(max_m=5, checks=(VerifyCheck("colength", False, "forced failure"),))
    monkeypatch.setattr("ginlab.verify.run_verification", lambda config, max_m: report)
    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(["verify", "general:2"])
        monkeypatch.undo()
        # the descriptor now points at devnull, for run's final flush
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
    assert (code, capsys.readouterr().err) == (1, "")


@pytest.mark.parametrize("data,refused", [
    ({"config": "general:2", "m": 1, "max-m": 3, "t": 9}, "'max-m', 't'"),  # misspelt, hilbert's
    ({"config": "general:2", "m": 1, "mm": 2}, "'mm'"),
    ({"config": "general:2", "m_list": "1,2"}, "'m_list'"),  # shape's
], ids=["misspelt-and-other-command", "unknown", "list-form"])
def test_config_file_refuses_keys_gin_does_not_take(tmp_path, capsys, data, refused):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, ["gin", "--config-file", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: config file keys not taken by gin: {refused}\n"


# a flag and its list form are one setting: giving both, on the command line
# or as two keys of one config file, is refused rather than one being dropped
@pytest.mark.parametrize("argv,data,message", [
    (["hilbert", "general:6", "--m", "10", "--t", "25", "--t-range", "20..21"], None,
     "error: give --t or --t-range, not both\n"),
    (["hilbert", "general:6", "--m", "10"], {"t": 25, "t_range": "20..21"},
     "error: give --t or --t-range, not both\n"),
    (["shape", "general:6", "--m", "10", "--m-list", "4,8"], None,
     "error: give --m or --m-list, not both\n"),
    (["shape", "general:6"], {"m": 10, "m_list": "4,8"},
     "error: give --m or --m-list, not both\n"),
], ids=["t-flags", "t-file", "m-flags", "m-file"])
def test_both_forms_of_one_setting_are_refused(tmp_path, capsys, argv, data, message):
    if data is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [*argv, "--config-file", str(path)]
    assert run_cli(capsys, argv) == (2, "", message)


def test_shape_checks_colength_before_any_output(capsys, monkeypatch):
    wrong = staircase_of((3,), 1, PointConfig.general(2))
    monkeypatch.setattr("ginlab.shape.gin_staircase", lambda config, m: wrong)
    for fmt in ("text", "csv", "json", "svg"):
        code, out, err = run_cli(capsys, ["shape", "general:2", "--m", "1", "--format", fmt])
        assert (code, out) == (3, "")
        assert err == ("arithmetic guard: colength 3 differs from scheme length 2 "
                       "for general:2, m=1\n")


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
     "bbaddb018529f3e70451a60ae0b1ce66b14f432e789c5035a0f551d3e4732955"),
    ("shape shgh:10 --m-list 5,10,15 --format csv",
     "f3618505369788d8fc00319891a50aeb04948acc41dd184b66b0e6e423a2a0d9"),
    ("verify shgh:11 --max-m 12",
     "6add86b7e01dbe765c450fa96ec7a2d3af5ab57c898bd8c84eaa4fab4dc6c87e"),
    ("verify shgh:9 --max-m 8 --format json",
     "8ce155b9e0d77072a35fd67790610446d617e824eeebda9d17c46ce8c344a895"),
    ("verify general:5 --max-m 10 --format json",
     "556660b728d8abd178d8329c8ade9b7216f49345e1b931777087b7ed275aca92"),
    ("verify general:6 --max-m 10",
     "bd0ea7a0132988d4c7ea5537a08e603a2e549e1abf5194a7b00838c5c34c208b"),
    ("verify collinear:3 --max-m 12",
     "e08ad1ea3a244d4e554744e9d0b171b2015a06c91c832b371eb704439ca84a22"),
    ("verify collinear:4 --max-m 12 --format json",
     "caafd220bb39cd4fcbe42423d31126e30c2d3e039e277453280441ee9b89c852"),
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
     "53ac84cd7345955abe035efa68c2f4fef7a2c58df495e784b6a3e9cb3ce9dfed"),
    ("gin general:6 --m 10",
     "667b2690b0b3137edb8f5d86ffa7fadb0694451ddab9b45a8e2b9e4f98a94551"),
    ("hilbert general:7 --m 20 --t-range 40..70 --format json",
     "7b6a5c69ce4b26637bd773a4dbcefb66fa06048b5cc37d0e4ae1d7ef4f43c7bd"),
    ("classes collinear:5 --format json",
     "0995ee2d95cfa02533e05bd695f33dcbb1816dc7fc11bd3ebbe0e5d2a05a300d"),
    ("shape shgh:11 --m-list 7,14 --format json",
     "52fc102efdf9accbd5be472b6008666a3e02a1b20c0ba02ab3992b4794b4c279"),
    ("shape collinear:4 --m-list 12,24 --format csv",
     "5119e9a319bdc0a44dcb16b0091692d735edef81e5153e0e226698158a6e1398"),
    ("shape collinear:3 --m-list 6,12 --format svg",
     "0278ec56f4fdb21d2b5caf5d162a4cfc63786f0f041ca5a0425c46bc19aa4d4c"),
    ("shape shgh:12 --m-list 4,8",
     "a1186f80b4e5bf49f0d8453e85e46ba08bf658eac25cba24e9417efecd96105c"),
    ("gin shgh:9 --m 3 --format text",
     "7236f7ba330bc3a5ff172bb03e476be16243ca99ed1eda32985b1c0769d04900"),
    ("gin general:2 --m 1 --format text",
     "f3118ddddb2e1e3fc3d05058fc4a292497a3c854540ae32bdc21497fafefd14c"),
    # alpha = 4096: 4096 column heights and 4097 generators
    ("gin shgh:10 --m 1295",
     "6da31ed66ab042754817cfcdeb55fb8eb29e00f8ce58897b3c3f7d478e5df383"),
    ("hilbert general:8 --m 30 --t-range 0..90 --format json",
     "e0694ff46312ab0a3cca6b91ba2bd39aa76e3739b4787999bc69c412c1fc8914"),
    # alpha = 4200: 4201 corners, one past a chunk
    ("shape shgh:9 --m-list 1400 --format json",
     "03725282abab7a3ef50605c6dc25a2972af5a372b15c96565466127ddc8ec661"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_output_bytes(capsys, command, digest):
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SVG_GOLDEN = [(c, d) for c, d in GOLDEN if c.endswith("svg")]


@pytest.mark.parametrize("command,digest", SVG_GOLDEN, ids=[c for c, _ in SVG_GOLDEN])
def test_shape_svg_never_builds_the_generator_pairs(capsys, monkeypatch, command, digest):
    monkeypatch.setattr(MonomialStaircase, "generators",
                        property(lambda self: pytest.fail("shape_svg read s.generators")))
    code, out, _ = run_cli(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# gin and shape read each staircase's runs in CHUNK slices, so no command path
# expands the whole profile; shgh:16 at m = 3000 spans several chunks
EXPANSION_FREE = [f"{command} {spec} {flag} {m} --format {fmt}"
                  for spec, m in (("general:6", 40), ("collinear:4", 24), ("shgh:16", 3000))
                  for command, flag, formats in (("gin", "--m", ("text", "json")),
                                                 ("shape", "--m-list", ("text", "csv", "json", "svg")))
                  for fmt in formats]


@pytest.mark.parametrize("command", EXPANSION_FREE)
def test_gin_and_shape_never_expand_the_profile(capsys, monkeypatch, command):
    expected = run_cli(capsys, command.split())
    monkeypatch.setattr(MonomialStaircase, "lambdas",
                        property(lambda self: pytest.fail("a command read s.lambdas")))
    gin_staircase.cache_clear()
    assert run_cli(capsys, command.split()) == expected
    assert expected[0] == 0


class Discard:
    """A stdout that drops each piece as it is handed over."""

    def writelines(self, pieces):
        collections.deque(pieces, maxlen=0)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_large_staircase_is_built_and_written_in_little_memory(monkeypatch, fmt):
    # alpha = 160,001: the expanded profile alone would take about 6 MB
    monkeypatch.setattr(sys, "stdout", Discard())
    gin_staircase.cache_clear()
    tracemalloc.start()
    try:
        assert cli.main(["gin", "shgh:16", "--m", "40000", "--format", fmt]) == 0
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gin_staircase.cache_info().currsize == 1
    assert peak < 2 * 2**20
    assert retained < 64 * 2**10


# Alternative routes that only verify's checks and tests may take; each
# configuration kind has one engine path, and no other command reaches these.
ORACLE_ROUTES = ("lattice.reduce_to_nef", "lattice.is_nef", "lattice.riemann_roch_h0", "lattice.h0",
                 "hilbert.alpha", "staircase.xy_count", "verify.brute_force_exceptional_classes")
ENGINE_COMMANDS = [f"{command} {spec}{flags}" for spec in ("general:6", "collinear:4", "shgh:10")
                   for command, flags in (
                       ("classes", ""), ("hilbert", " --m 7 --t-range 0..40"),
                       ("gin", " --m 12"), ("gin", " --m 12 --format text"),
                       *(("shape", f" --m-list 3,6,12 --format {f}") for f in ("text", "json", "csv", "svg")))]


def ginlab_modules() -> list:
    return [mod for name, mod in sys.modules.items() if name == "ginlab" or name.startswith("ginlab.")]


def test_engine_commands_take_no_oracle_route(capsys, monkeypatch):
    def run_all(commands):
        for cached in {v for mod in ginlab_modules() for v in vars(mod).values() if hasattr(v, "cache_clear")}:
            cached.cache_clear()
        return [run_cli(capsys, command.split()) for command in commands]

    def raising(qualname):
        def stub(*args, **kwargs):
            raise AssertionError(f"{qualname} called")
        return stub

    def stub_every_name(qualnames):
        routes = {}
        for qualname in qualnames:
            module, name = qualname.split(".")
            routes[id(getattr(sys.modules[f"ginlab.{module}"], name))] = qualname
        # every name a ginlab module holds a route under, as bench/tracing.py rebinds them
        rebound = [(mod, name, routes[id(value)]) for mod in ginlab_modules()
                   for name, value in vars(mod).items() if id(value) in routes]
        for mod, name, qualname in rebound:
            monkeypatch.setattr(mod, name, raising(qualname))
        assert {qualname for _, _, qualname in rebound} == set(qualnames)

    expected = run_all(ENGINE_COMMANDS)
    stub_every_name(ORACLE_ROUTES)
    assert run_all(ENGINE_COMMANDS) == expected
    # hilbert, gin and shape read the orbit table, never the expanded class list
    stub_every_name(("lattice.exceptional_classes",))
    engine = [i for i, command in enumerate(ENGINE_COMMANDS) if not command.startswith("classes ")]
    assert run_all([ENGINE_COMMANDS[i] for i in engine]) == [expected[i] for i in engine]
    # classes refuses shgh, which carries infinitely many exceptional classes
    assert [c for c, (code, _, _) in zip(ENGINE_COMMANDS, expected) if code] == ["classes shgh:10"]
