"""The `penrose` output bytes, pinned across versions by `cli_golden.json`.

Each case records stdout, stderr and the exit code of one command, run in a
fresh directory after `calibrate`: every command of the benchmark's cli
session, one error of each kind and two budget refusals, in both formats,
plus the `--help` text of `penrose` and of each subcommand.  Replay it on
any interpreter, pytest or not; the exit status is 1 when a case differs:

    python tests/test_cli_golden.py

Regenerate the golden only for an intended output change, and review its diff:

    python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_golden.json")

SECTION = "z0*z11*zeta1^-2*zeta2^-1*zeta3^-1 - 1/2*z12*z21*zeta1^-1*zeta2^-2*zeta3^-1"
COMMANDS = [
    ["calibrate"],  # first: it writes the file the others read
    ["transform", "--section", SECTION],
    ["weight", "--section", SECTION],
    ["act", "--root", "E12", "--section", SECTION],
    ["check-monogenic", "--spinor", "x2_11^2;0;0;0"],
    ["kernel-dim", "--degree", "3"],
    ["decompose", "--degree", "6"],
    ["hwv", "--a", "0", "--b", "0", "--l", "1"],
    ["hwv", "--a", "1", "--b", "0", "--l", "1"],
    ["check-monogenic", "--spinor", "x12*x1_11 + 1/2*x2_21^2;x12;0;x1_32*x12"],
    ["transform", "--section", "zeta1^-1 + q"],
    ["act", "--root", "E99", "--section", "z12"],
    ["transform", "--section", "z0^7*zeta1^-1*zeta2^-1*zeta3^-1"],
    ["kernel-dim", "--degree", "9"],
]
SUBCOMMANDS = ["transform", "weight", "act", "check-monogenic", "kernel-dim", "decompose", "hwv", "calibrate"]
CASES = (
    [argv + ["--format", fmt] for argv in COMMANDS for fmt in ("table", "json")]
    + [["--help"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
)


def replay(argv):
    from monogenic.cli import main  # here, so that --write can put src/ on sys.path first

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits after printing --help
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_the_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    golden = json.loads(GOLDEN.read_text())
    assert [case["argv"] for case in golden] == CASES
    for case in golden:
        assert replay(case["argv"]) == case


def test_top_level_help_ignores_the_terminal_width(monkeypatch):
    # The top-level help and each subcommand's: one text under COLUMNS 40, 80 and 200.
    for argv in [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]:
        texts = set()
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.add(replay(argv)["stdout"])
        assert len(texts) == 1, (argv, texts)
    assert "{" + ",".join(SUBCOMMANDS) + "} ..." in replay(["--help"])["stdout"].splitlines()[0]


if __name__ == "__main__":
    write = sys.argv[1:] == ["--write"]
    if sys.argv[1:] and not write:
        raise SystemExit("usage: python tests/test_cli_golden.py [--write]")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # the checkout's package
    os.environ["COLUMNS"] = "80"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            cases = [replay(argv) for argv in CASES]
        finally:
            os.chdir(cwd)
    if write:
        GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
        print(f"wrote {len(cases)} cases to {GOLDEN}")
        raise SystemExit(0)
    golden = json.loads(GOLDEN.read_text())
    if [case["argv"] for case in golden] != CASES:
        raise SystemExit(f"{GOLDEN} does not hold the cases listed here; regenerate it with --write")
    mismatched = [case["argv"] for case, want in zip(cases, golden) if case != want]
    for argv in mismatched:
        print("mismatch: penrose " + shlex.join(argv))
    print(f"{len(cases) - len(mismatched)} of {len(cases)} cases match {GOLDEN.name}")
    raise SystemExit(1 if mismatched else 0)
