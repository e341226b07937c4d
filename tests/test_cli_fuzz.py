"""A grammar-driven fuzz of the CLI: no input ends in a traceback.

Each example is one subcommand with settings drawn from ``cli._KEYS``,
valid or not, mixed with edge values: nan, inf, 1e308, 1e-320, 0, huge
rates and degenerate ranges.  It runs in process through ``cli.main`` and
must exit 0, 2, 3 or 4, print at most one ``error:`` line on stderr, and
on success write CSV or JSON that parses.  The work per example stays
small: at most 4 terms, 343 sampled points, 400 grid cells and 50 RK4
steps.  ``--out`` and ``--config`` name files and are not drawn.

Run it with ten times the examples:
    pytest tests/test_cli_fuzz.py --hypothesis-profile=ci-deep
"""

import contextlib
import csv
import io
import json
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbeseries import cli

EDGE = ["nan", "inf", "-inf", "1e308", "1e-320", "0", "-1", "1e400", "1/3", "x"]


def _mostly(valid, edge=EDGE) -> st.SearchStrategy:
    """A draw from ``valid`` about seven times in eight, from ``edge`` otherwise.

    Each is a strategy or a list to sample from.
    """
    valid, edge = (st.sampled_from(v) if isinstance(v, list) else v for v in (valid, edge))
    return st.tuples(st.integers(0, 7), valid, edge).map(
        lambda drawn: drawn[1] if drawn[0] < 7 else drawn[2])


NUMBER = _mostly(["0.05", "0.5", "1", "2"]) | st.floats(0, 3).map(repr)
RATE = _mostly(["1", "1/2", "50", "1e300", "1e-300"])
COEFF = _mostly(["1", "-1", "6250000", "1e300", "1e-300", "1/3"])
POWER = _mostly(["0", "1", "2", "7"], ["513", "-1", "1.5", "1e308"])
SMALL_INT = _mostly(["1", "2", "3", "4", "0"], ["-1", "x", "1.5", "1e308"])


def _range(start: str, count: int, step: str) -> str:
    """start:stop:step with about ``count`` points (or an overflowing stop)."""
    return f"{start}:{float(start) + count * float(step)!r}:{step}"


# at most 7 points per axis, so a 2-D density samples at most 343
POINTS = (
    st.lists(NUMBER, min_size=1, max_size=3).map(",".join)
    | st.builds(_range, st.sampled_from(["0", "0.5", "1e-320", "1e308"]), st.integers(0, 6),
                st.sampled_from(["0.25", "1", "1e-320", "1e308", "0", "-1"]))
    | st.sampled_from(["1:0:1", "0:0:1", "0:1", "0:1e308:1e-320", "", ",", "1:2:nan"])
)

U0_1D = (st.builds("exp:{}".format, RATE)
         | st.builds("monoexp:{},{},{}".format, COEFF, POWER, RATE))
U0_2D = st.builds("monoexp2:{},{},{},{},{}".format, COEFF, POWER, POWER, RATE, RATE)
U0_BAD = st.sampled_from(["exp:", "monoexp:1,2", "gauss:1"])

FRAG = st.builds("{},{},{},{}".format, COEFF, SMALL_INT, NUMBER,
                 _mostly(["1", "2", "3"], ["0", "-1", "x"]))

VALUES = {
    "kernel": _mostly(cli._KEYS["kernel"][2], ["bogus"]),
    "frag": FRAG,
    "u0": U0_1D | U0_2D | U0_BAD,
    "method": _mostly(cli._KEYS["method"][2], ["bogus"]),
    "terms": _mostly(["1", "2", "3", "4", "0", "1:3", "2,4", "0:4"], ["-1", "3:1", "x", "1e308"]),
    "t": POINTS,
    "x": POINTS,
    "y": POINTS,
    "compare": _mostly(["exact"], ["bogus"]),
    "j": _mostly(["0", "0,1", "2", "0,0;1,0", "1,1"], ["600", "-1", "x", ""]),
    "t0": NUMBER,
    "T": NUMBER,
    "m": SMALL_INT | st.just("1000000"),
    "lam": NUMBER,
    # t_end / dt is at most 50 RK4 steps, or overflows
    "t_end": _mostly(["0", "0.01", "0.05"]),
    "dt": _mostly(["0.01", "0.001"], ["1e308", "1e-320", "0", "-1", "nan", "inf"]),
    "cells": _mostly(["16", "100", "400"], ["15", "0", "-1", "x"]),
    "xmax": _mostly(["50", "1"]),
    "format": _mostly(cli._KEYS["format"][2], ["xml"]),
}
assert set(VALUES) == set(cli._KEYS) - {"model", "out", "config"}


# the settings given one time in eight: those the model does not use, which
# are an error, and --compare and coag2d's --kernel, which most problems refuse
RARE = {"coag": {"frag", "y", "lam"}, "ccfe": {"y", "lam"}, "frag": {"kernel", "y", "T"},
        "coag2d": {"frag", "lam", "kernel"}}


def _draw_argv(data, command: str, model: str) -> list[str]:
    """The subcommand and its flags: each setting is given 7 times in 8, or 1 in 8
    if ``RARE``, so that many examples get past the settings check."""
    # a u0 of the model's dimension seven times in eight
    fitting, other = (U0_2D, U0_1D) if model == "coag2d" else (U0_1D, U0_2D)
    values = {**VALUES, "u0": _mostly(fitting, other | U0_BAD)}
    argv = [command, f"--model={model}"]
    for key in cli._COMMANDS[command][2]:
        if key in VALUES:
            drawn = data.draw(st.integers(0, 7), label=f"{key}?")
            if (drawn < 7) == (key not in RARE.get(model, set()) | {"compare"}):
                argv.append(f"--{key.replace('_', '-')}={data.draw(values[key], label=key)}")
    return argv


def _check_output(command: str, argv: list[str], out: str) -> None:
    def reject(constant):
        raise AssertionError(f"{constant} in the JSON of {argv}")

    if command == "dump-symbolic" or "--format=json" in argv:
        json.loads(out, parse_constant=reject)
        return
    rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert rows and all(len(r) == len(rows[0]) for r in rows), argv


@pytest.mark.parametrize("model", [*cli._KEYS["model"][2], "bogus"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
@given(data=st.data())
def test_every_input_exits_with_a_status_and_one_line(command, model, data):
    argv = _draw_argv(data, command, model)
    out, err = io.StringIO(), io.StringIO()
    # a warning would print to stderr in a process of its own
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                         and err.endswith("\n")), (argv, err)
    if code == 0:
        _check_output(command, argv, out)
