"""Golden CLI outputs: every listed command must reproduce its stored bytes.

``golden_stdout.json`` holds, per command, the sha256 of stdout, the exit
status and the stderr text.  It covers the README commands, the README's
two error tables (L1 and pointwise) again as ``--format json``, a
``dump-symbolic`` of each benchmark problem under both engines, the 2-D
``density``/``moments`` comparisons, each branch of ``bounds``, a
``bounds`` on a degree-121 v_1 and two whose exact norm meets the float
range (one fits, one exits 3), three
commands at times that are not dyadic rationals, six commands whose rates
are not integers (1-D and 2-D dumps, a 2-D ``density``, a product-kernel
``bounds`` and a sum-kernel ``moments``), three closed forms where they are
hard (product-kernel moments up to t = 0.4, the product density past 500
terms, the bivariate density past the float range), ``reference-check`` on the sum,
product, breakage and both coupled problems and for ten steps on a
4,001-node constant-kernel grid, three deeper ``ahpetm`` dumps
(constant n = 6 and sum n = 5, whose large products multiply packed
columns, and ``coag2d`` n = 5, whose wide, sparse columns keep them on the
pair loop), the ``--help`` text of the program (also ahead of a
subcommand name) and of each subcommand (at a pinned 80-column width),
and an unknown subcommand's usage error.  A
refactor that claims unchanged behaviour must pass this file unchanged.

Regenerate the data only for an intended output change, from the commit
whose outputs are the new contract:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
from pathlib import Path
from unittest import mock

import pytest

from pbeseries.cli import main

GOLDEN = Path(__file__).with_name("golden_stdout.json")

_PROBLEMS = {
    "constant": "--model coag --kernel constant --u0 exp:1",
    "sum": "--model coag --kernel sum --u0 exp:1",
    "product": "--model coag --kernel product --u0 exp:1",
    "breakage": "--model frag --frag 2,1,1,1 --u0 exp:1",
    "halfx": "--model ccfe --kernel constant --frag 2,1,1/2,1 --u0 monoexp:4,1,2",
    "twox": "--model ccfe --kernel constant --frag 2,1,2,1 --u0 monoexp:32,1,4",
    "coag2d": "--model coag2d --u0 monoexp2:6250000,1,1,50,50",
}

COMMANDS = {
    "readme-density": "density --model coag --kernel constant --u0 exp:1 "
                      "--terms 3 --t 2 --x 0:10:0.1 --compare exact",
    "readme-l1": "error-table --model coag --kernel constant --u0 exp:1 "
                 "--terms 3:6 --t 0.5,1,1.5,2",
    "readme-pointwise": "error-table --model coag --kernel sum --u0 exp:1 "
                        "--terms 4 --x 5 --t 0.2:1.6:0.2",
    # the same two tables as JSON
    "readme-l1-json": "error-table --model coag --kernel constant --u0 exp:1 "
                      "--terms 3:6 --t 0.5,1,1.5,2 --format json",
    "readme-pointwise-json": "error-table --model coag --kernel sum --u0 exp:1 "
                             "--terms 4 --x 5 --t 0.2:1.6:0.2 --format json",
    "readme-moments": "moments --model ccfe --kernel constant --frag 2,1,1/2,1 "
                      "--u0 monoexp:4,1,2 --terms 3 --j 0,1 --t 0:2:0.1",
    "readme-bounds": "bounds --model coag --kernel constant --u0 exp:1 "
                     "--t0 0.05 --T 1 --m 3",
    "readme-reference-check": "reference-check --model coag --kernel constant --u0 exp:1 "
                              "--terms 4 --t-end 0.25 --cells 2000 --dt 1e-3",
    "readme-dump": "dump-symbolic --model coag --kernel product --u0 exp:1 --terms 2",
    **{f"dump-{method}-{name}": f"dump-symbolic {flags} --method {method} --terms {n}"
       for name, flags in _PROBLEMS.items()
       for method, n in (("ahpetm", 4), ("classical", 8))},
    # unequal rates, so that swapping the two size axes shows
    "density-coag2d": "density --model coag2d --u0 monoexp2:4000000,1,1,40,50 --terms 3 "
                      "--t 0.005,0.01 --x 0:0.1:0.02 --y 0.01,0.05 --compare exact",
    "moments-coag2d": "moments --model coag2d --u0 monoexp2:4000000,1,1,40,50 --terms 3 "
                      "--j 0,0;1,0;0,1;2,1 --t 0:0.02:0.005 --compare exact",
    "bounds-frag": f"bounds {_PROBLEMS['breakage']} --t0 0.25 --lam 1 --m 3",
    "bounds-coag2d": f"bounds {_PROBLEMS['coag2d']} --t0 0.01 --T 1 --m 3",
    # a high-degree v_1 whose sign changes are isolated, and exact norms whose
    # antiderivative passes the float range: the norm fits at p = 150, not at p = 170
    "bounds-ccfe-deep": "bounds --model ccfe --kernel constant --frag 2,1,1,1 "
                        "--u0 monoexp:1,60,1 --t0 1e-100 --T 1 --m 3",
    **{f"bounds-frag-p{p}": f"bounds --model frag --frag 2,1,1,1 --u0 monoexp:1,{p},1 "
                            "--t0 0.1 --lam 1 --m 3" for p in (150, 170)},
    # times that are not dyadic rationals, so that exact time substitution
    # meets large denominators
    "drawn-l1": f"error-table {_PROBLEMS['constant']} --terms 3:6 --t 0.437,1.283",
    "drawn-bounds-frag": f"bounds {_PROBLEMS['breakage']} --t0 0.173 --lam 1 --m 3",
    "drawn-moments-sum": f"moments {_PROBLEMS['sum']} --terms 4 --j 0,1,2 "
                         "--t 0.137,0.437,1.283",
    # rates that are not integers, so that the exact rates pass through
    # their API form on the way out of the algebra
    "frac-dump-sum": "dump-symbolic --model coag --kernel sum --u0 exp:1/2 --terms 3",
    "frac-dump-product": "dump-symbolic --model coag --kernel product "
                         "--u0 monoexp:2/3,1,3/2 --terms 2 --method classical",
    "frac-dump-coag2d": "dump-symbolic --model coag2d --u0 monoexp2:1,1,1,3/2,5/2 --terms 2",
    "frac-density-coag2d": "density --model coag2d --u0 monoexp2:1,1,1,3/2,5/2 --terms 2 "
                           "--t 0.1 --x 0,0.5 --y 0.25,1",
    "frac-bounds-product": "bounds --model coag --kernel product --u0 exp:3/2 "
                           "--t0 0.1 --T 1 --m 3",
    "frac-moments-sum": "moments --model coag --kernel sum --u0 exp:1/3 --terms 3 "
                        "--j 0,1,2 --t 0:1:0.25",
    # closed forms in their hard regimes: the product moments up to t = 0.4,
    # the product density past 500 terms near gelation, and the bivariate
    # density where its terms or its envelope pass the float range
    "exact-moments-product": f"moments {_PROBLEMS['product']} --terms 4 --j 0,1,2 "
                             "--t 0:0.4:0.1 --compare exact",
    "exact-density-product-x800": f"density {_PROBLEMS['product']} --terms 2 --t 0.5 "
                                  "--x 800 --compare exact",
    "exact-density-coag2d-far": f"density {_PROBLEMS['coag2d']} --terms 3 --t 1 "
                                "--x 8,10 --y 8,10 --compare exact",
    # the grid oracle beyond the constant kernel: sum, product, breakage, both coupled
    **{f"reference-check-{name}": f"reference-check {_PROBLEMS[name]} --terms 4 "
                                  "--t-end 0.25 --cells 400 --dt 5e-3"
       for name in ("sum", "product", "breakage", "halfx", "twox")},
    # ten RK4 steps on the 4,001-node grid, the largest the benchmark runs
    "reference-check-constant-4000": f"reference-check {_PROBLEMS['constant']} --terms 4 "
                                     "--t-end 0.01 --cells 4000 --dt 1e-3",
    # deep iterates, whose large products multiply packed t-columns
    **{f"deep-dump-ahpetm-{name}": f"dump-symbolic {_PROBLEMS[name]} --method ahpetm --terms {n}"
       for name, n in (("constant", 6), ("sum", 5), ("coag2d", 5))},
    "help": "--help",
    # program help ahead of a subcommand name, and a subcommand that does not exist
    "help-before-bounds": "--help bounds",
    "unknown-command": "frobnicate --model coag",
    **{f"help-{cmd}": f"{cmd} --help" for cmd in (
        "density", "error-table", "moments", "bounds", "reference-check", "dump-symbolic")},
}


def run_command(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps --help text at the terminal width, so pin it
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return {
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "exit": code,
        "stderr": err.getvalue(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert set(_golden()) == set(COMMANDS)


@pytest.mark.parametrize("cid", sorted(COMMANDS))
def test_output_is_byte_identical(cid):
    assert run_command(COMMANDS[cid]) == _golden()[cid]


if __name__ == "__main__":
    captured = {cid: run_command(cmd) for cid, cmd in sorted(COMMANDS.items())}
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(captured)} commands to {GOLDEN}")
