"""Frozen CLI output, compared byte for byte.

Every command's --no-manifest CSV and JSON output over sweeps that touch each
regime (Klein, evanescent and above-barrier steps, both thresholds, massless
and normal-incidence singular cells under --allow-singular, non-propagating
angles and evanescent barrier interiors), the stderr of the failure cases and
the --help text.  A case whose file ends in ".stderr" compares stderr and
expects empty stdout; every other case compares stdout and expects empty
stderr.  argparse's own answers (usage errors and help) to argv that names
no command, an unknown one, an unknown flag or a stray word are pinned inline.

After an intended output change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import gc
import io
import os
import pathlib
import sys

import pytest

from kleinstep.cli import _COMMANDS, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
HELP_COLUMNS = "80"  # argparse wraps --help to the terminal width

STEP_E = "1.5:9:16"  # 0.5 apart: Klein, E = V0 - m = 4, evanescent, E = V0 + m = 6, above

CASES = [
    ("step-rt-paper.csv", 0, ["step-rt", "--E", STEP_E, "--m", "1", "--V0", "5"]),
    ("step-rt-common.csv", 0,
     ["step-rt", "--E", STEP_E, "--m", "1", "--V0", "5", "--convention", "common"]),
    ("step-rt-common.json", 0,
     ["step-rt", "--E", STEP_E, "--m", "1", "--V0", "5", "--convention", "common",
      "--format", "json"]),
    ("step-compare.csv", 0,
     ["step-compare", "--E", STEP_E, "--m", "0,1", "--V0", "3,5", "--allow-singular"]),
    ("step-compare.json", 0,
     ["step-compare", "--E", STEP_E, "--m", "0,1", "--V0", "3,5", "--allow-singular",
      "--format", "json"]),
    ("spinor-check.csv", 0, ["spinor-check", "--m", "1", "--eps=-3,-1,-0.5,0,0.5,1,2"]),
    ("spinor-check-massless.json", 0,
     ["spinor-check", "--m", "0", "--eps=-2,-0.5,0.5,2", "--format", "json"]),
    ("graphene-angle-klein.csv", 0,
     ["graphene-angle", "--lambdaF", "50", "--V0", "0.3", "--theta=-80:80:17",
      "--allow-singular"]),
    ("graphene-angle-critical.csv", 0,
     ["graphene-angle", "--E", "0.3", "--V0", "0.42", "--theta=-85:85:35",
      "--allow-singular"]),
    ("graphene-angle-ntype.json", 0,
     ["graphene-angle", "--E", "0.3", "--V0", "0.1", "--theta=-85:85:18",
      "--hbar-vF", "0.7", "--format", "json"]),
    ("barrier-klein.csv", 0,
     ["barrier", "--lambdaF", "50", "--V0", "0.3", "--D", "1:200:12", "--theta", "30"]),
    ("barrier-evanescent.csv", 0,
     ["barrier", "--E", "0.3", "--V0", "0.42", "--D", "1:100:5", "--theta", "40"]),
    ("barrier-ntype.json", 0,
     ["barrier", "--E", "0.3", "--V0", "0.1", "--D", "5,25,80", "--theta=-20",
      "--format", "json"]),
    ("iv-curve.csv", 0, ["iv-curve", "--Vb=-0.2,0,0.1,0.3", "--V-max", "1e-3", "--n", "5"]),
    ("iv-curve.json", 0,
     ["iv-curve", "--V=-1e-3,0,2e-3", "--mobility", "8000", "--alpha", "5e10",
      "--aspect-ratio", "2", "--format", "json"]),
    ("angular-current.csv", 0, ["angular-current", "--n", "19"]),
    ("angular-current.json", 0,
     ["angular-current", "--lambdaF", "30", "--V0", "0.2", "--theta-max", "25", "--n", "7",
      "--format", "json"]),
    ("step-compare-below-mass.stderr", 2, ["step-compare", "--E", "1.2", "--m", "1.5", "--V0", "5"]),
    ("graphene-angle-singular.stderr", 1,
     ["graphene-angle", "--E", "0.08", "--V0", "0.3", "--theta", "0"]),
    # a junction at the Dirac point (E = V0): k_xII^2 = -k_y^2, so no angle propagates,
    # normal incidence (k_xII = 0) included
    ("graphene-angle-dirac-point.csv", 0,
     ["graphene-angle", "--E", "0.1", "--V0", "0.1", "--theta=-30,0,30"]),
    # an interior at the Dirac point (E = V0): T = 1/cosh^2(k_y D) = 1 at normal incidence
    ("barrier-dirac-point.csv", 0, ["barrier", "--E", "0.3", "--V0", "0.3", "--D", "10"]),
    ("help.txt", 0, ["--help"]),
] + [(f"help-{command}.txt", 0, [command, "--help"]) for command in _COMMANDS]


def _argv(name: str, args: list[str]) -> list[str]:
    return args if name.startswith("help") else args + ["--no-manifest"]


def _run(name: str, args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(name, args))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,exit_code,args", CASES, ids=[case[0] for case in CASES])
def test_golden(name, exit_code, args, monkeypatch):
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    code, out, err = _run(name, args)
    expected = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
    assert code == exit_code
    if name.endswith(".stderr"):
        assert (out, err) == ("", expected)
    else:
        assert (out, err) == (expected, "")


USAGE = "usage: kleinstep [-h] command ...\n"

# argv that argparse rejects or answers with help before any sweep runs: (argv, exit code,
# stdout, stderr); stdout "help.txt" is that golden file's text
ARGPARSE_CASES = [
    ([], 2, "", USAGE + "kleinstep: error: a command is required\n"),
    (["bogus"], 2, "",
     USAGE + "kleinstep: error: argument command: invalid choice: 'bogus' (choose from "
     "'step-rt', 'step-compare', 'spinor-check', 'graphene-angle', 'barrier', 'iv-curve', "
     "'angular-current')\n"),
    (["barrier", "--bogus"], 2, "", USAGE + "kleinstep: error: unrecognized arguments: --bogus\n"),
    (["--E=1", "barrier"], 2, "", USAGE + "kleinstep: error: unrecognized arguments: --E=1\n"),
    (["-h", "barrier"], 0, "help.txt", ""),
    (["--hel"], 0, "help.txt", ""),
    (["barrier", "--E=1", "step-rt"], 2, "",
     USAGE + "kleinstep: error: unrecognized arguments: step-rt\n"),
]


@pytest.mark.parametrize("argv,exit_code,out,err", ARGPARSE_CASES,
                         ids=[" ".join(case[0]) or "no-arguments" for case in ARGPARSE_CASES])
def test_argparse_path(argv, exit_code, out, err, monkeypatch):
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    if out:
        out = (GOLDEN_DIR / out).read_bytes().decode("utf-8")
    assert _run("help", argv) == (exit_code, out, err)


def test_console_entry_reads_sys_argv(monkeypatch):
    # the console script calls main() with no argv
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    monkeypatch.setattr(sys, "argv", ["kleinstep", "barrier", "--help"])
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert main() == 0
    finally:
        gc.unfreeze()  # main() froze this process's heap as a launch does: hand it back
    assert out.getvalue() == (GOLDEN_DIR / "help-barrier.txt").read_bytes().decode("utf-8")


if __name__ == "__main__":
    os.environ["COLUMNS"] = HELP_COLUMNS
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, exit_code, args in CASES:
        code, out, err = _run(name, args)
        if code != exit_code:
            sys.exit(f"{name}: exit {code}, expected {exit_code}\n{err}")
        text = err if name.endswith(".stderr") else out
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
