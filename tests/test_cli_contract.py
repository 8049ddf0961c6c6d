"""The CLI contract, one flag at a time (after Claessen and Hughes,
"QuickCheck", ICFP 2000): every argv ends in exit 0 with nothing on
stderr, in exit 1 with exactly one `error: ` line, or in exit 2 (a usage
error), and raises no warning.

The subcommands, their flags and the flags' types are read from the
table the parser is built from. Each flag takes every edge value of its
type while the others keep their defaults.
"""

import warnings

import pytest

from eplab.cli import _COMMANDS, main

FLOATS = ("0", "-0", "5e-324", "-5e-324", "1e-300", "1e-9", "1", "-1", "1.5", "3", "1e6",
          "1000001", "1e300", "-1e300", "inf", "-inf", "nan")
INTS = ("0", "-1", "1", "2", "3", "4", "7", "100000", str(2**31), str(2**63), str(10**30))
RANGES = ("", ":", "1:2", "1:2:3:4", "a:b:c", "0:1:0", "0:1:-0.05", "1:0:0.05", "0:inf:0.05",
          "nan:1:0.05", "0:1e300:1e-300", "-1e300:1e300:1")
# flags whose valid values set the amount of work: they take only the
# values outside (0, 2**31), each invalid or beyond the flag's cap
WORK_SIZE = {"duration", "samples", "steps", "angles", "resolution"}


def edge_values(flag):
    if flag.choices:
        return (*flag.choices, "none_of_these")
    values = {float: FLOATS, int: INTS, str: RANGES}[type(flag.default)]
    if flag.name in WORK_SIZE:
        values = tuple(v for v in values if not 0 < float(v) < 2**31)
    return values


CASES = [(name, flag) for name, command in _COMMANDS.items() for flag in command.flags]


@pytest.mark.parametrize("command, flag", CASES, ids=[f"{c}--{f.name}" for c, f in CASES])
def test_one_flag_at_an_edge_keeps_the_contract(capsys, command, flag):
    broken = []
    for value in edge_values(flag):
        argv = [command, "--" + flag.name.replace("_", "-"), value]
        if command == "spectrum" and not flag.name.endswith("_range"):
            argv += ["--k2-range", "0:1:0.05"]  # a spectrum needs one sweep
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except Warning as w:
                broken.append((value, f"{type(w).__name__}: {w}"))
                continue
        _, err = capsys.readouterr()
        if not (
            (code == 0 and err == "")
            or (code == 1 and err.startswith("error: ") and err.count("\n") == 1)
            or code == 2
        ):
            broken.append((value, code, err))
    assert broken == []
