"""Printed digits near the Dirac thresholds, below deep steps, through barriers and on
generic cells of every command but spinor-check's against frozen high-precision texts.

tests/digits.json holds, per command, launches of such cells and the %.9g text
of each computed column, from a 60-digit evaluation at the exact float inputs
(its "about" field says how the cells were drawn and what is left out). A
launch may list its own columns in place of its command's.
"""

import json
import pathlib

import pytest

from kleinstep.cli import main

DIGITS = json.loads((pathlib.Path(__file__).parent / "digits.json").read_text())["commands"]
# each command's swept flag; an angular-current launch sweeps the grid its flags set
SWEPT = {"spinor-check": "eps", "graphene-angle": "theta", "barrier": "D", "iv-curve": "V",
         "angular-current": None}


@pytest.mark.parametrize("command", sorted(DIGITS))
def test_near_threshold_texts_are_the_true_digits(command, capsys):
    spec = DIGITS[command]
    swept = SWEPT.get(command, "E")
    wrong = []
    for launch in spec["launches"]:
        # one launch per swept list: the CLI solves its cells in blocks
        flags = [f"--{name}={value}" for name, value in launch["flags"].items()]
        if swept:
            flags.append(f"--{swept}=" + ",".join(launch[swept]))
        code = main([command, *flags, "--no-manifest"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        header = lines[0].split(",")
        columns = [header.index(name) for name in launch.get("columns", spec["columns"])]
        for line, want in zip(lines[1:], launch["rows"], strict=True):
            got = [line.split(",")[i] for i in columns]
            if got != want:
                wrong.append((launch["stratum"], launch["flags"], line, want))
    assert not wrong, f"{len(wrong)} rows print wrong digits, the first: {wrong[0]}"
